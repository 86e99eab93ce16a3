package pipeline

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
)

// stepEveryStage is the reference the idle skip is held to: Run's loop with
// every stage of every clock stepped (step), never skipIdle.
func stepEveryStage(c *Core) error {
	for !c.halted {
		if err := c.step(); err != nil {
			return err
		}
		if c.cfg.MaxCycles > 0 && c.cycle > c.cfg.MaxCycles {
			return fmt.Errorf("%w (%d)", ErrMaxCycles, c.cfg.MaxCycles)
		}
		if c.cfg.WatchdogCycles > 0 && c.cycle-c.lastCommitCycle > c.cfg.WatchdogCycles {
			return fmt.Errorf("%w at cycle %d", ErrDeadlock, c.cycle)
		}
	}
	return nil
}

// chaseProg is memory-bound: every load's address depends on the previous
// load's value, so the window fills behind a chain of L2 misses and the
// backend, not fetch, holds the machine idle.
func chaseProg() *isa.Program {
	return asm.MustAssemble(`
		.data buf 16384
		main:
			la   r8, buf
			li   r9, 0
			li   r12, 24
		loop:
			ld   r10, [r8+0]
			add  r8, r8, r10
			addi r8, r8, 576
			addi r9, r9, 1
			blt  r9, r12, loop
			halt
	`)
}

// secureChaseProg puts a secure branch behind each miss of a chase: under
// SeMPE its rename waits for the window to drain, so the idle clocks behind
// the miss are drain stalls.
func secureChaseProg() *isa.Program {
	return asm.MustAssemble(`
		.data buf 16384
		main:
			la   r8, buf
			li   r9, 0
			li   r12, 8
		loop:
			ld   r10, [r8+0]
			add  r8, r8, r10
			addi r8, r8, 576
			sbne r10, rz, taken
			addi r11, r11, 1
			jmp  join
		taken:
			addi r11, r11, 2
		join:
			eosjmp
			addi r9, r9, 1
			blt  r9, r12, loop
			halt
	`)
}

// memAccess is one MemWatch callback.
type memAccess struct {
	addr  uint64
	write bool
	cycle uint64
}

// traceRun runs prog on a new core with both watches recording, through
// drive, and returns what they saw.
func traceRun(t *testing.T, cfg Config, prog *isa.Program, drive func(*Core) error) (*Core, []SpecEvent, []memAccess) {
	t.Helper()
	var events []SpecEvent
	var accesses []memAccess
	c := New(cfg, prog)
	c.SetSpecWatch(func(ev SpecEvent) { events = append(events, ev) })
	c.MemWatch = func(addr uint64, write bool, cycle uint64) {
		accesses = append(accesses, memAccess{addr, write, cycle})
	}
	if err := drive(c); err != nil {
		t.Fatal(err)
	}
	return c, events, accesses
}

// TestIdleSkipMatchesEveryStage holds Run, which skips idle clocks, to the
// every-stage stepper on the spec-stream programs and a memory-bound chase
// under both configurations: Stats, both digests, every MemWatch callback
// and the whole spec-event stream (cycle stamps included) must be equal.
// The chase must skip clocks the old IL1-stall-only rule could not: more
// clocks are skipped than fetch ever stalled.
func TestIdleSkipMatchesEveryStage(t *testing.T) {
	progs := append(specStreamProgs(), namedProg{"chase", chaseProg()}, namedProg{"securechase", secureChaseProg()})
	for _, cfg := range specStreamCfgs() {
		for _, p := range progs {
			t.Run(cfg.name+"/"+p.name, func(t *testing.T) {
				run, runEv, runMem := traceRun(t, cfg.cfg, p.prog, (*Core).Run)
				ref, refEv, refMem := traceRun(t, cfg.cfg, p.prog, stepEveryStage)
				if ref.skipped != 0 {
					t.Fatalf("the reference skipped %d clocks", ref.skipped)
				}
				if run.Stats != ref.Stats {
					t.Errorf("Stats differ:\n run %+v\n ref %+v", run.Stats, ref.Stats)
				}
				if run.CommitDigest() != ref.CommitDigest() || run.MemDigest() != ref.MemDigest() {
					t.Errorf("digests differ: run %#x/%#x, ref %#x/%#x",
						run.CommitDigest(), run.MemDigest(), ref.CommitDigest(), ref.MemDigest())
				}
				if !reflect.DeepEqual(runMem, refMem) {
					t.Errorf("MemWatch saw %d accesses, reference %d, or their stamps differ", len(runMem), len(refMem))
				}
				if !reflect.DeepEqual(runEv, refEv) {
					t.Errorf("spec streams differ: %d events, reference %d", len(runEv), len(refEv))
				}
				if p.name == "chase" && run.skipped <= run.Stats.FetchStallCycles {
					t.Errorf("chase skipped %d clocks, fetch stalled %d: no skip outside fetch stalls",
						run.skipped, run.Stats.FetchStallCycles)
				}
			})
		}
	}
}

// TestIdleSkipHonorsBudgets: a run that ends on the cycle budget or the
// watchdog inside an idle stretch fails on the same cycle, with the same
// counters, as stepping every clock. The budget is set to the middle of
// the chase's longest skipped stretch.
func TestIdleSkipHonorsBudgets(t *testing.T) {
	var mid, longest uint64
	for c := New(DefaultConfig(), chaseProg()); !c.halted; {
		before := c.cycle
		if err := c.StepCycle(); err != nil {
			t.Fatal(err)
		}
		if gap := c.cycle - before - 1; gap > longest {
			longest, mid = gap, before+gap/2
		}
	}
	if longest < 100 {
		t.Fatalf("the chase's longest skip is %d clocks", longest)
	}
	for _, tc := range []struct {
		name   string
		budget func(*Config)
	}{
		{"maxcycles", func(c *Config) { c.MaxCycles = mid }},
		{"watchdog", func(c *Config) { c.WatchdogCycles = 150 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.budget(&cfg)
			run, ref := New(cfg, chaseProg()), New(cfg, chaseProg())
			errRun, errRef := run.Run(), stepEveryStage(ref)
			if errRun == nil || errRef == nil {
				t.Fatalf("budget not hit: run %v, reference %v", errRun, errRef)
			}
			if run.Cycles() != ref.Cycles() || run.Stats != ref.Stats {
				t.Errorf("run stopped at cycle %d (%+v), reference at %d (%+v)", run.Cycles(), run.Stats, ref.Cycles(), ref.Stats)
			}
			if run.skipped == 0 {
				t.Error("no clock skipped before the budget ran out")
			}
		})
	}
}
