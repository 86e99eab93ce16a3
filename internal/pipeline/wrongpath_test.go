package pipeline

import (
	"fmt"
	"testing"

	"repro/internal/asm"
	"repro/internal/emu"
	"repro/internal/isa"
)

// TestMispredictedSJmpNeverRenames pins why the jbTable and the SPM need no
// flush unwind. Under SeMPE an sJMP renames only into an empty ROB (the
// drain in rename) and pushes both structures only at commit, so an sJMP
// fetched down a mispredicted path is dropped by the older branch's flush
// before it can rename. Here a cold predictor says taken for a public
// branch that falls through, and its taken target starts with an sJMP.
func TestMispredictedSJmpNeverRenames(t *testing.T) {
	prog := asm.MustAssemble(`
		main:
			li   r8, 1
			beq  r8, rz, wrong
			sbne r8, rz, t1
			li   r10, 222
			jmp  j1
		t1:
			li   r10, 111
		j1:
			eosjmp
			halt
		wrong:
			sbne r8, rz, t2
			jmp  j2
		t2:
			nop
		j2:
			eosjmp
			halt
	`)
	wrongSJmp := prog.Sym("wrong")
	tr := NewTracer(1 << 12)
	core := New(SecureConfig(), prog)
	core.SetSpecWatch(tr.Record)
	if err := core.Run(); err != nil {
		t.Fatal(err)
	}
	if tr.Dropped() != 0 {
		t.Fatalf("ring too small: %d dropped", tr.Dropped())
	}
	events := tr.Events()
	squashed := map[uint64]bool{}
	for _, ev := range events {
		if ev.Kind == SpecFetch && ev.PC == wrongSJmp {
			if ev.Disp != DispSquashed {
				t.Errorf("fetch of the wrong-path sJMP (seq %d) resolved %v, want squashed", ev.Seq, ev.Disp)
			}
			squashed[ev.Seq] = true
		}
	}
	if len(squashed) == 0 {
		t.Fatal("no fetch of the wrong-path sJMP; the mispredict into it is untested")
	}
	for _, ev := range events {
		if (ev.Kind == SpecIssue || ev.Kind == SpecCommit) && squashed[ev.Seq] {
			t.Errorf("the wrong-path sJMP (seq %d) reached %v", ev.Seq, ev.Kind)
		}
	}
	if core.JB.Depth() != 0 || core.SPM.Depth() != 0 {
		t.Errorf("jbTable depth %d, SPM depth %d after the run, want 0, 0", core.JB.Depth(), core.SPM.Depth())
	}
	ref := emu.New(emu.SeMPE, prog, SecureConfig().SPM.Slots)
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	if ref.SJmps != 1 || core.Stats.SJmps != ref.SJmps {
		t.Errorf("committed sJMPs: core %d, emulator %d, want 1 each", core.Stats.SJmps, ref.SJmps)
	}
}

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

// TestWrongPathNestedMispredict: fetch through nested wrong-path regions
// must match its golden run, while actually exercising the machinery:
// replayed micro-ops must be squashed.
func TestWrongPathNestedMispredict(t *testing.T) {
	on := runGolden(t, "default_nested", DefaultConfig(), wrongPathNestedProg())
	if on.Stats.BranchMispredicts == 0 {
		t.Fatal("workload produced no mispredicts; the wrong-path edge is untested")
	}
	if on.SBStats.WrongPathReplays == 0 {
		t.Error("no replayed micro-op was ever squashed (WrongPathReplays=0)")
	}
}

// TestWrongPathSecureRedirectMidSuperblock: under SeMPE the commit-time
// eosJMP controller redirects fetch in the middle of straight-line code.
// The redirect must not move any observable off the golden run, for both
// secret values.
func TestWrongPathSecureRedirectMidSuperblock(t *testing.T) {
	for _, secret := range []int64{0, 1} {
		on := runGolden(t, fmt.Sprintf("secure_secure%d", secret), SecureConfig(), secureBranchProg(secret))
		if on.Stats.EOSJmps == 0 {
			t.Fatalf("secret=%d: no secure redirects; test needs a SeMPE program", secret)
		}
	}
}

// wrongPathColdTargetProg: the guarded branch is never taken, but the cold
// predictor guesses taken on its first encounter, so fetch redirects to
// `never` — code no path ever reaches — while the div feeding the branch
// resolves. That target is uncached, so fetch decodes its instructions
// entirely on the wrong path; the flush must charge them to WrongPathBuilds,
// and the cached entries must persist harmlessly (static decodes are
// path-independent).
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
// fetch has been decoding new instructions must truncate the decode stamps
// into WrongPathBuilds without perturbing any observable, and later
// correct-path fetch must replay the (path-independent) cached entries.
func TestWrongPathFlushDuringBuild(t *testing.T) {
	on := runGolden(t, "default_coldtarget", DefaultConfig(), wrongPathColdTargetProg())
	if on.Stats.BranchMispredicts == 0 {
		t.Fatal("workload produced no mispredicts; the wrong-path edge is untested")
	}
	if on.SBStats.WrongPathBuilds == 0 {
		t.Error("no decode was ever charged to a wrong path (WrongPathBuilds=0)")
	}
	if on.SBStats.Replays == 0 {
		t.Error("engine never replayed")
	}
}

// TestWrongPathReplayZeroAlloc: with a mispredict-heavy workload keeping
// speculative fetch hot, the steady-state cycle loop must stay at 0
// allocs/op — decode-stamp truncation and the bulk squash may not allocate. The core comes from a Prototype, the pool
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
