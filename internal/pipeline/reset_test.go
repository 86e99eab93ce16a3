package pipeline

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/asm"
	"repro/internal/cache"
	"repro/internal/isa"
)

// resetSnap is the complete observable surface of a finished run: final
// architectural registers, cycle count, every pipeline statistic, the
// commit/memory digests, predictor state, per-level cache statistics,
// superblock engine statistics, and the full watch-hook event streams:
// committed memory accesses (MemWatch) and committed conditional branches
// (the spec watch's predictor updates). A Reset core and a fresh core must
// produce DeepEqual snapshots.
type resetSnap struct {
	regs     [isa.NumArchRegs]uint64
	cycles   uint64
	stats    Stats
	sb       SuperblockStats
	commit   uint64
	mem      uint64
	bp       uint64
	il1      cache.Stats
	dl1      cache.Stats
	l2       cache.Stats
	mems     []obs
	branches []obs
}

// recorder collects watch-hook events. The hooks close over the recorder, so
// one armed core can record multiple runs across Reset (which preserves
// hooks); clear() starts a new stream.
type recorder struct {
	mems, branches []obs
}

func (rec *recorder) clear() {
	rec.mems, rec.branches = rec.mems[:0], rec.branches[:0]
}

// armRecorder installs a MemWatch and an explicit spec watch filtered to
// the predictor updates of committed conditional branches (JALR updates
// emit the same event kind). The branch observation is the update's pc,
// commit cycle, direction, and mispredict flag.
func armRecorder(c *Core) *recorder {
	rec := &recorder{}
	c.MemWatch = func(addr uint64, write bool, cycle uint64) {
		rec.mems = append(rec.mems, obs{a: addr, b: cycle, flag1: write})
	}
	c.SetSpecWatch(func(ev SpecEvent) {
		if ev.Kind == SpecBPUpdate && isCondBranch(c.prog, ev.PC) {
			rec.branches = append(rec.branches, obs{a: ev.PC, b: ev.Cycle, flag1: ev.Taken, flag2: ev.Mispredict})
		}
	})
	return rec
}

// isCondBranch reports whether the instruction at pc in prog is a
// conditional branch.
func isCondBranch(prog *isa.Program, pc uint64) bool {
	inst, _, err := isa.Decode(prog.Code, int(pc-prog.CodeBase))
	return err == nil && inst.Op.IsBranch()
}

func snapshot(c *Core, rec *recorder) resetSnap {
	return resetSnap{
		regs:     c.ArchRegs(),
		cycles:   c.Cycles(),
		stats:    c.Stats,
		sb:       c.SBStats,
		commit:   c.CommitDigest(),
		mem:      c.MemDigest(),
		bp:       c.BP.Digest(),
		il1:      c.Hier.IL1.Stats,
		dl1:      c.Hier.DL1.Stats,
		l2:       c.Hier.L2.Stats,
		mems:     append([]obs(nil), rec.mems...),
		branches: append([]obs(nil), rec.branches...),
	}
}

func mustRun(t *testing.T, c *Core) {
	t.Helper()
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

// freshSnap runs prog on a brand-new core with hooks armed and snapshots it —
// the reference every reset path is compared against.
func freshSnap(t *testing.T, cfg Config, prog *isa.Program) resetSnap {
	t.Helper()
	c := New(cfg, prog)
	rec := armRecorder(c)
	mustRun(t, c)
	return snapshot(c, rec)
}

func storeLoadProg() *isa.Program {
	return asm.MustAssemble(`
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
}

func mispredictHeavyProg() *isa.Program {
	return asm.MustAssemble(`
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
}

func callRetProg() *isa.Program {
	return asm.MustAssemble(`
		main:
			li   r8, 0
			li   r9, 20
		loop:
			call inc
			addi r9, r9, -1
			bne  r9, rz, loop
			halt
		inc:
			addi r8, r8, 1
			ret
	`)
}

// TestCoreResetDifferential: Reset must restore a dirtied core to exactly the
// state pipeline.New produces. Every (dirty program, target program) pair in
// the matrix runs on both configurations: the core first executes the dirty
// program with watch hooks armed, is Reset onto the target, and the target
// run's complete snapshot — cycle count included — must DeepEqual a fresh
// core's. The matrix crosses loads/stores, heavy mispredicts, call/ret, and
// SeMPE multi-path programs so the recycled predictor, cache, superblock, and
// rename state are each exercised.
func TestCoreResetDifferential(t *testing.T) {
	progs := []struct {
		name string
		prog *isa.Program
	}{
		{"storeload", storeLoadProg()},
		{"mispredict", mispredictHeavyProg()},
		{"callret", callRetProg()},
		{"secure0", secureBranchProg(0)},
		{"secure1", secureBranchProg(1)},
	}
	cfgs := []struct {
		name string
		cfg  Config
	}{
		{"default", DefaultConfig()},
		{"secure", SecureConfig()},
	}
	for _, cfg := range cfgs {
		for _, dirty := range progs {
			for _, target := range progs {
				name := fmt.Sprintf("%s/%s-then-%s", cfg.name, dirty.name, target.name)
				t.Run(name, func(t *testing.T) {
					want := freshSnap(t, cfg.cfg, target.prog)
					c := New(cfg.cfg, dirty.prog)
					rec := armRecorder(c)
					mustRun(t, c)
					rec.clear()
					c.Reset(target.prog)
					mustRun(t, c)
					got := snapshot(c, rec)
					if !reflect.DeepEqual(got, want) {
						t.Errorf("reset core diverged from fresh core:\nfresh: %+v\nreset: %+v", want, got)
					}
				})
			}
		}
	}
}

// TestCoreResetRepeated: many resets in a row onto the same program must be
// bit-for-bit deterministic — no drift accumulates in recycled pools, the
// pre-decode cache, or the superblock arena.
func TestCoreResetRepeated(t *testing.T) {
	prog := secureBranchProg(1)
	cfg := SecureConfig()
	want := freshSnap(t, cfg, prog)
	c := New(cfg, prog)
	rec := armRecorder(c)
	mustRun(t, c)
	for i := 0; i < 5; i++ {
		rec.clear()
		c.Reset(prog)
		mustRun(t, c)
		if got := snapshot(c, rec); !reflect.DeepEqual(got, want) {
			t.Fatalf("reset iteration %d diverged from fresh run", i)
		}
	}
}

// TestCoreResetWithWatchHooksArmed: hooks installed before the first run must
// survive Reset — the attack runner installs its marker watch once and relies
// on it firing for every pooled trial. The second run's event stream must be
// event-for-event identical to a fresh core's, with no rearming.
func TestCoreResetWithWatchHooksArmed(t *testing.T) {
	prog := storeLoadProg()
	cfg := DefaultConfig()
	want := freshSnap(t, cfg, prog)
	if len(want.mems) == 0 || len(want.branches) == 0 {
		t.Fatalf("reference run observed no events (mem=%d, branch=%d)", len(want.mems), len(want.branches))
	}
	c := New(cfg, prog)
	rec := armRecorder(c)
	mustRun(t, c)
	rec.clear()
	c.Reset(prog) // hooks must persist across this
	mustRun(t, c)
	got := snapshot(c, rec)
	if !reflect.DeepEqual(got.mems, want.mems) {
		t.Errorf("memory event stream after reset differs from fresh (got %d events, want %d)",
			len(got.mems), len(want.mems))
	}
	if !reflect.DeepEqual(got.branches, want.branches) {
		t.Errorf("branch event stream after reset differs from fresh (got %d events, want %d)",
			len(got.branches), len(want.branches))
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("full snapshot after reset differs from fresh")
	}
}

// TestCoreResetMidSuperblockTrace: Reset while a superblock replay is in
// flight (the core stepped mid-run with the trace engine engaged, cursor
// live) must fully retract the cached traces and replay cursor; the next run
// must match a fresh core exactly.
func TestCoreResetMidSuperblockTrace(t *testing.T) {
	prog := storeLoadProg()
	cfg := DefaultConfig()
	c := New(cfg, prog)
	rec := armRecorder(c)
	// Step until replay is demonstrably engaged, well before the program ends.
	for c.SBStats.Replays == 0 || c.Cycles() < 120 {
		if c.Halted() {
			t.Fatal("program halted before the superblock engine engaged; test needs a longer program")
		}
		if err := c.StepCycle(); err != nil {
			t.Fatal(err)
		}
	}
	for _, target := range []*isa.Program{prog, mispredictHeavyProg()} {
		want := freshSnap(t, cfg, target)
		rec.clear()
		c.Reset(target)
		mustRun(t, c)
		if got := snapshot(c, rec); !reflect.DeepEqual(got, want) {
			t.Errorf("reset mid-superblock-trace diverged from fresh:\nfresh: %+v\nreset: %+v", want, got)
		}
	}
}

// TestCoreResetAfterRedirectHeavyRun: a run dominated by branch mispredicts
// leaves squashed uops, dropped replay cursors, and trained predictor state
// behind; Reset must scrub all of it. The dirty run must itself have
// mispredicted for the test to bite.
func TestCoreResetAfterRedirectHeavyRun(t *testing.T) {
	dirty := mispredictHeavyProg()
	cfg := DefaultConfig()
	c := New(cfg, dirty)
	rec := armRecorder(c)
	mustRun(t, c)
	if c.Stats.BranchMispredicts == 0 {
		t.Fatal("dirty run produced no mispredicts; the redirect edge is untested")
	}
	for _, target := range []*isa.Program{dirty, storeLoadProg(), secureBranchProg(1)} {
		want := freshSnap(t, cfg, target)
		rec.clear()
		c.Reset(target)
		mustRun(t, c)
		if got := snapshot(c, rec); !reflect.DeepEqual(got, want) {
			t.Errorf("reset after redirect-heavy run diverged from fresh:\nfresh: %+v\nreset: %+v", want, got)
		}
	}
}
