package pipeline

import (
	"fmt"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
)

// wrongPathNestedProg: the outer branch depends on a load (resolves late),
// the inner one on register arithmetic (resolves early), so a mispredicted
// inner branch can redirect fetch while the core is already past an
// unresolved — and wrong — outer prediction: a nested mispredict inside a
// wrong-path region. Both data patterns are irregular enough that TAGE
// keeps mispredicting throughout.
func wrongPathNestedProg() *isa.Program {
	return asm.MustAssemble(`
		main:
			li   r8, 0
			li   r9, 120
			li   r12, 4096
		loop:
			st   r9, [r12+0]
			ld   r11, [r12+0]
			andi r11, r11, 5
			beq  r11, rz, skip
			andi r13, r9, 3
			beq  r13, rz, inner
			addi r10, r10, 3
		inner:
			addi r10, r10, 1
		skip:
			add  r8, r8, r9
			addi r9, r9, -1
			bne  r9, rz, loop
			halt
	`)
}

// TestWrongPathNestedMispredict: replay through nested wrong-path regions
// must match its golden run, while actually exercising the machinery:
// squashed replayed micro-ops and cursor re-keys onto cached redirect
// targets must both occur.
func TestWrongPathNestedMispredict(t *testing.T) {
	on := runGolden(t, "default_nested", DefaultConfig(), wrongPathNestedProg())
	if on.Stats.BranchMispredicts == 0 {
		t.Fatal("workload produced no mispredicts; the wrong-path edge is untested")
	}
	if on.SBStats.WrongPathReplays == 0 {
		t.Error("no replayed micro-op was ever squashed (WrongPathReplays=0)")
	}
	if on.SBStats.ReKeys == 0 {
		t.Error("no redirect ever re-keyed the cursor onto a cached block (ReKeys=0)")
	}
}

// TestWrongPathSecureRedirectMidSuperblock: under SeMPE the commit-time
// eosJMP controller redirects fetch while the replay cursor is mid-block.
// The redirect must re-key (or drop) the cursor without moving any
// observable off the golden run — for both secret values — and the secure
// redirects must actually land on a live cursor.
func TestWrongPathSecureRedirectMidSuperblock(t *testing.T) {
	for _, secret := range []int64{0, 1} {
		on := runGolden(t, fmt.Sprintf("secure_secure%d", secret), SecureConfig(), secureBranchProg(secret))
		if on.Stats.EOSJmps == 0 {
			t.Fatalf("secret=%d: no secure redirects; test needs a SeMPE program", secret)
		}
		if on.SBStats.ReKeys+on.SBStats.Invalidate == 0 {
			t.Errorf("secret=%d: no redirect ever hit a live cursor", secret)
		}
	}
}

// wrongPathColdTargetProg: the guarded branch is never taken, but the cold
// predictor guesses taken on its first encounter, so fetch redirects to
// `never` — code no path ever reaches — while the div feeding the branch
// resolves. That target is uncached, so the replay engine builds a fresh
// superblock entirely on the wrong path; the flush must charge it to
// WrongPathBuilds, and the cached block must persist harmlessly (static
// traces are path-independent).
func wrongPathColdTargetProg() *isa.Program {
	return asm.MustAssemble(`
		main:
			li   r9, 6
			li   r8, 0
			li   r10, 1
		loop:
			div  r11, r9, r10
			beq  r11, rz, never
			add  r8, r8, r9
			addi r9, r9, -1
			bne  r9, rz, loop
			halt
		never:
			addi r8, r8, 99
			xori r8, r8, 5
			halt
	`)
}

// TestWrongPathFlushDuringBuild: flushes that arrive while wrong-path
// fetch has been building superblocks must truncate the build stamps into
// WrongPathBuilds without perturbing any observable, and later correct-path
// fetch must replay the (path-independent) cached blocks.
func TestWrongPathFlushDuringBuild(t *testing.T) {
	on := runGolden(t, "default_coldtarget", DefaultConfig(), wrongPathColdTargetProg())
	if on.Stats.BranchMispredicts == 0 {
		t.Fatal("workload produced no mispredicts; the wrong-path edge is untested")
	}
	if on.SBStats.WrongPathBuilds == 0 {
		t.Error("no superblock build was ever charged to a wrong path (WrongPathBuilds=0)")
	}
	if on.SBStats.Replays == 0 {
		t.Error("engine never replayed")
	}
}

// TestWrongPathReplayZeroAlloc: with a mispredict-heavy workload keeping
// speculative fetch hot, the steady-state cycle loop must stay at 0
// allocs/op — cursor re-keying, build-stamp truncation, and the bulk squash
// may not allocate. The core comes from a Prototype, the pool
// BenchmarkSimulatorSpeed vends its cores from.
func TestWrongPathReplayZeroAlloc(t *testing.T) {
	prog := asm.MustAssemble(`
		main:
			li   r8, 0
			li   r9, 60000
			li   r12, 4096
		loop:
			st   r9, [r12+0]
			ld   r11, [r12+0]
			andi r11, r11, 5
			beq  r11, rz, skip
			andi r13, r9, 3
			beq  r13, rz, inner
			addi r10, r10, 3
		inner:
			addi r10, r10, 1
		skip:
			add  r8, r8, r9
			addi r9, r9, -1
			bne  r9, rz, loop
			halt
	`)
	proto := NewPrototype(DefaultConfig(), prog)
	core := NewFromPrototype(proto)
	for i := 0; i < 20_000 && !core.Halted(); i++ {
		if err := core.StepCycle(); err != nil {
			t.Fatal(err)
		}
	}
	if core.Halted() {
		t.Fatal("workload halted during warmup; allocation window needs live cycles")
	}
	if core.SBStats.WrongPathReplays == 0 {
		t.Fatal("warmup squashed no replayed micro-ops; the gate is not exercising wrong-path replay")
	}
	var stepErr error
	halted := false
	allocs := testing.AllocsPerRun(100, func() {
		if core.Halted() {
			halted = true
			return
		}
		if err := core.StepCycle(); err != nil {
			stepErr = err
		}
	})
	if stepErr != nil {
		t.Fatal(stepErr)
	}
	if halted {
		t.Fatal("workload halted inside the allocation window")
	}
	if allocs != 0 {
		t.Errorf("steady-state StepCycle with wrong-path replay: %.1f allocs/op, want 0", allocs)
	}
}
