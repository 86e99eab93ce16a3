package attack

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/victim"
)

// memAccess is one MemWatch callback.
type memAccess struct {
	addr  uint64
	write bool
	cycle uint64
}

// watchedCore builds a core for prog with both watches recording.
func watchedCore(cfg pipeline.Config, prog *isa.Program, ev *[]pipeline.SpecEvent, mem *[]memAccess) *pipeline.Core {
	c := pipeline.New(cfg, prog)
	c.SetSpecWatch(func(e pipeline.SpecEvent) { *ev = append(*ev, e) })
	c.MemWatch = func(addr uint64, write bool, cycle uint64) { *mem = append(*mem, memAccess{addr, write, cycle}) }
	return c
}

// TestIdleSkipMatchesEveryStageOnTrials runs one calibration program of
// each attacker and victim, both architectures, through Run, which skips
// idle clocks, and through a stepper that runs every stage of every clock:
// StepCycle on a core whose cycle budget is already spent, since skipIdle
// never jumps past MaxCycles and StepCycle leaves the budget to Run. The
// stepper proves it skipped nothing (one call per cycle). Stats, both
// digests, every MemWatch callback and the spec-event stream must agree.
// On prime+probe the skip must reach beyond the IL1-stall rule it
// replaced, which needed an empty window: it must skip clocks during which
// a load is in flight.
func TestIdleSkipMatchesEveryStageOnTrials(t *testing.T) {
	for _, kind := range AllKinds() {
		for _, secure := range []bool{false, true} {
			for _, v := range victim.Names() {
				name := fmt.Sprintf("%s/%s/%s", kind, ArchName(secure), v)
				p := DefaultParams(kind, secure)
				p.Victim, p.Width, p.Bit, p.KeyPrefix = v, 4, 2, 1
				r, err := newRunner(p)
				if err != nil {
					t.Fatal(err)
				}
				d := r.trialDraw(0)
				if _, _, err := r.prepare(0, d, d.gapCal, p.KeyPrefix); err != nil {
					t.Fatal(err)
				}
				prog := &r.progs[0]

				var runEv, refEv []pipeline.SpecEvent
				var runMem, refMem []memAccess
				run := watchedCore(r.cfg, prog, &runEv, &runMem)
				if err := run.Run(); err != nil {
					t.Fatal(err)
				}

				spent := r.cfg
				spent.MaxCycles = 1
				ref := watchedCore(spent, prog, &refEv, &refMem)
				steps := uint64(0)
				for !ref.Halted() {
					if err := ref.StepCycle(); err != nil {
						t.Fatal(err)
					}
					steps++
				}
				if steps != ref.Cycles() {
					t.Fatalf("%s: the reference stepped %d times over %d cycles", name, steps, ref.Cycles())
				}
				if run.Stats != ref.Stats || run.CommitDigest() != ref.CommitDigest() || run.MemDigest() != ref.MemDigest() {
					t.Errorf("%s: Run %+v, every stage %+v", name, run.Stats, ref.Stats)
				}
				if !reflect.DeepEqual(runMem, refMem) || !reflect.DeepEqual(runEv, refEv) {
					t.Errorf("%s: watches differ: %d/%d accesses, %d/%d spec events", name,
						len(runMem), len(refMem), len(runEv), len(refEv))
				}
				if kind == PrimeProbe {
					if n := skippedWhileLoading(t, r.cfg, prog); n == 0 {
						t.Errorf("%s: no clock skipped while a load was in flight", name)
					}
				}
			}
		}
	}
}

// skippedWhileLoading steps prog with StepCycle and counts the skipped
// clocks during which a load was in flight (between its SpecMemExec and
// its latency's end): the rule this skip replaced jumped only over an empty
// window, so none of these clocks was skippable before.
func skippedWhileLoading(t *testing.T, cfg pipeline.Config, prog *isa.Program) uint64 {
	t.Helper()
	var busyUntil uint64 // last cycle any executed load still had in flight
	c := pipeline.New(cfg, prog)
	c.SetSpecWatch(func(e pipeline.SpecEvent) {
		if e.Kind == pipeline.SpecMemExec && !e.Write {
			busyUntil = max(busyUntil, e.Cycle+uint64(e.Lat))
		}
	})
	var n uint64
	for !c.Halted() {
		before := c.Cycles()
		if err := c.StepCycle(); err != nil {
			t.Fatal(err)
		}
		// Skipped clocks: before+1 .. c.Cycles()-1.
		if end := min(busyUntil, c.Cycles()); end > before+1 {
			n += end - before - 1
		}
	}
	return n
}
