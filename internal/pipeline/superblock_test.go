package pipeline

import (
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

// newReference builds a core that fetches through the per-instruction
// reference walk (fetchLegacy) instead of the superblock replay engine.
func newReference(cfg Config, prog *isa.Program) *Core {
	c := New(cfg, prog)
	c.sbOff = true
	return c
}

// runPair executes prog on two fresh cores — the superblock replay engine
// and the reference walk — and requires the complete observable surface to
// match: final registers, cycle counts, every pipeline statistic, the
// commit and memory digests, predictor state, and per-level cache
// statistics. It returns the replay core for engagement assertions.
func runPair(t *testing.T, cfg Config, prog *isa.Program) *Core {
	t.Helper()
	on := New(cfg, prog)
	if err := on.Run(); err != nil {
		t.Fatalf("superblock core: %v", err)
	}
	off := newReference(cfg, prog)
	if err := off.Run(); err != nil {
		t.Fatalf("legacy core: %v", err)
	}
	if on.ArchRegs() != off.ArchRegs() {
		t.Errorf("architectural registers differ")
	}
	if on.Stats != off.Stats {
		t.Errorf("pipeline stats differ:\non:  %+v\noff: %+v", on.Stats, off.Stats)
	}
	if on.CommitDigest() != off.CommitDigest() {
		t.Errorf("commit digests differ")
	}
	if on.MemDigest() != off.MemDigest() {
		t.Errorf("memory digests differ")
	}
	if on.BP.Digest() != off.BP.Digest() {
		t.Errorf("predictor digests differ")
	}
	for _, pair := range []struct {
		name      string
		con, coff interface{ MissRate() float64 }
	}{
		{"IL1", on.Hier.IL1.Stats, off.Hier.IL1.Stats},
		{"DL1", on.Hier.DL1.Stats, off.Hier.DL1.Stats},
		{"L2", on.Hier.L2.Stats, off.Hier.L2.Stats},
	} {
		if pair.con != pair.coff {
			t.Errorf("%s stats differ: %+v vs %+v", pair.name, pair.con, pair.coff)
		}
	}
	return on
}

// TestSuperblockSecBlockBoundaryMidTrace: the sJMP and the eosJMP marker sit
// in the middle of straight-line runs, so superblocks span SecBlock
// boundaries. Replay must reproduce the drains, the jump-back redirect, and
// the register restores exactly — for both secret values.
func TestSuperblockSecBlockBoundaryMidTrace(t *testing.T) {
	for _, secret := range []int64{0, 1} {
		on := runPair(t, SecureConfig(), secureBranchProg(secret))
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
	on := runPair(t, DefaultConfig(), prog)
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
// own reference-walk executions exactly.
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
	a := runPair(t, DefaultConfig(), progA)
	b := runPair(t, DefaultConfig(), progB)
	if a.ArchRegs()[10] != 30 || b.ArchRegs()[10] != 200 {
		t.Errorf("r10: progA=%d progB=%d, want 30, 200 — a stale trace replayed",
			a.ArchRegs()[10], b.ArchRegs()[10])
	}
}

// TestSuperblockWatchHooksMidRun: the commit-time observations — MemWatch
// and the spec watch's conditional-branch predictor updates — are
// independent of whether the uop arrived via replay or the reference walk,
// so arming them mid-run must produce the exact event stream — addresses
// AND cycle stamps — a never-superblocked core produces.
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
	run := func(reference bool) (Stats, []obs, []obs, uint64) {
		c := New(DefaultConfig(), prog)
		c.sbOff = reference
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
		return c.Stats, rec.mems, rec.branches, c.CommitDigest()
	}
	sOn, memOn, brOn, digOn := run(false)
	sOff, memOff, brOff, digOff := run(true)
	if sOn != sOff {
		t.Errorf("stats differ:\non:  %+v\noff: %+v", sOn, sOff)
	}
	if digOn != digOff {
		t.Error("commit digests differ")
	}
	if len(memOn) == 0 || len(brOn) == 0 {
		t.Fatalf("hooks observed nothing after arming (mem=%d, branch=%d)", len(memOn), len(brOn))
	}
	for i := range memOn {
		if i >= len(memOff) || memOn[i] != memOff[i] {
			t.Fatalf("memory observation %d differs", i)
		}
	}
	for i := range brOn {
		if i >= len(brOff) || brOn[i] != brOff[i] {
			t.Fatalf("branch observation %d differs", i)
		}
	}
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
