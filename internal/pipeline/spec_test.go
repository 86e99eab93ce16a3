package pipeline

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
)

// mispredictStormProg loops over an irregular bit pattern, branching on each
// bit: the data-driven direction stream defeats TAGE warm-up and produces a
// storm of mispredicted flushes with wrong-path work in flight.
func mispredictStormProg() *isa.Program {
	b := asm.NewBuilder()
	b.Label("main")
	b.Emit(isa.Inst{Op: isa.OpLi, Rd: 8, Imm: 64})         // iteration count
	b.Emit(isa.Inst{Op: isa.OpLi, Rd: 9, Imm: 0x5bd1e995}) // bit pattern
	b.Label("loop")
	b.Emit(isa.Inst{Op: isa.OpAndi, Rd: 10, Ra: 9, Imm: 1})
	b.EmitRef(isa.Inst{Op: isa.OpBne, Ra: 10, Rb: 0}, "odd")
	b.Emit(isa.Inst{Op: isa.OpAddi, Rd: 11, Ra: 11, Imm: 1})
	b.EmitRef(isa.Inst{Op: isa.OpJmp}, "next")
	b.Label("odd")
	b.Emit(isa.Inst{Op: isa.OpAddi, Rd: 12, Ra: 12, Imm: 1})
	b.Label("next")
	b.Emit(isa.Inst{Op: isa.OpShri, Rd: 9, Ra: 9, Imm: 1})
	b.Emit(isa.Inst{Op: isa.OpAddi, Rd: 8, Ra: 8, Imm: -1})
	b.EmitRef(isa.Inst{Op: isa.OpBne, Ra: 8, Rb: 0}, "loop")
	b.Emit(isa.Inst{Op: isa.OpHalt})
	prog, err := b.Finish()
	if err != nil {
		panic(err)
	}
	return prog
}

// collectSpec runs prog with an event-collecting spec watch armed and
// returns the events alongside the core.
func collectSpec(t *testing.T, cfg Config, prog *isa.Program) ([]SpecEvent, *Core) {
	t.Helper()
	var events []SpecEvent
	core := New(cfg, prog)
	core.SetSpecWatch(func(ev SpecEvent) { events = append(events, ev) })
	if err := core.Run(); err != nil {
		t.Fatal(err)
	}
	return events, core
}

// checkFlushAgreement asserts the event-stream/counter invariants between
// the SpecFlush stream and the Stats wrong-path accounting.
func checkFlushAgreement(t *testing.T, events []SpecEvent, s Stats) {
	t.Helper()
	var byCause [4]uint64
	var squashed, dropped uint64
	for _, ev := range events {
		if ev.Kind != SpecFlush {
			continue
		}
		byCause[ev.Cause]++
		squashed += uint64(ev.SquashedROB)
		dropped += uint64(ev.DroppedFE)
	}
	if got, want := byCause[FlushMispredict], s.FlushMispredicts; got != want {
		t.Errorf("mispredict flush events = %d, Stats.FlushMispredicts = %d", got, want)
	}
	if got, want := byCause[FlushSecureRedirect], s.FlushSecRedirects; got != want {
		t.Errorf("secure-redirect flush events = %d, Stats.FlushSecRedirects = %d", got, want)
	}
	if got, want := byCause[FlushOverflow], s.FlushOverflows; got != want {
		t.Errorf("overflow flush events = %d, Stats.FlushOverflows = %d", got, want)
	}
	if s.FlushMispredicts+s.FlushOverflows != s.Flushes {
		t.Errorf("cause split %d+%d != Stats.Flushes %d",
			s.FlushMispredicts, s.FlushOverflows, s.Flushes)
	}
	if s.FlushSecRedirects != s.SecRedirects {
		t.Errorf("FlushSecRedirects %d != SecRedirects %d", s.FlushSecRedirects, s.SecRedirects)
	}
	if squashed != s.SquashedUops {
		t.Errorf("sum of flush-event SquashedROB = %d, Stats.SquashedUops = %d", squashed, s.SquashedUops)
	}
	if squashed+dropped != s.WrongPathFetches {
		t.Errorf("squashed+dropped = %d, Stats.WrongPathFetches = %d", squashed+dropped, s.WrongPathFetches)
	}
}

func TestSpecFlushAccountingMispredictStorm(t *testing.T) {
	prog := mispredictStormProg()
	events, core := collectSpec(t, DefaultConfig(), prog)
	s := core.Stats
	if s.FlushMispredicts == 0 {
		t.Fatal("storm produced no mispredict flushes; test program is broken")
	}
	if s.WrongPathFetches == 0 {
		t.Error("mispredict flushes but WrongPathFetches = 0")
	}
	checkFlushAgreement(t, events, s)

	// Arming the watch must not perturb the machine: cycle count and every
	// Stats field must match an unarmed run on the superblock fast path.
	plain := New(DefaultConfig(), prog)
	if err := plain.Run(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Stats, core.Stats) {
		t.Errorf("stats diverge with spec watch armed:\narmed:   %+v\nunarmed: %+v", core.Stats, plain.Stats)
	}
}

func TestSpecFlushAccountingSecureRedirect(t *testing.T) {
	for _, secret := range []int64{0, 1} {
		prog := secureBranchProg(secret)
		events, core := collectSpec(t, SecureConfig(), prog)
		s := core.Stats
		if s.SecRedirects != 1 {
			t.Fatalf("secret=%d: SecRedirects=%d, want 1", secret, s.SecRedirects)
		}
		if s.FlushSecRedirects != 1 {
			t.Errorf("secret=%d: FlushSecRedirects=%d, want 1", secret, s.FlushSecRedirects)
		}
		checkFlushAgreement(t, events, s)

		// The redirect's flush event must carry the secure-redirect cause,
		// never mispredict: eosJMP jump-backs are unconditional by design.
		for _, ev := range events {
			if ev.Kind == SpecFlush && ev.Cause == FlushSecureRedirect && ev.SquashedROB != 0 {
				t.Errorf("secret=%d: secure redirect squashed %d renamed ops; the drain guarantees zero",
					secret, ev.SquashedROB)
			}
		}
	}
}

func TestSpecWatchCycleInertUnderSeMPE(t *testing.T) {
	for _, secret := range []int64{0, 1} {
		prog := secureBranchProg(secret)
		_, armed := collectSpec(t, SecureConfig(), prog)
		plain := New(SecureConfig(), prog)
		if err := plain.Run(); err != nil {
			t.Fatal(err)
		}
		if armed.Cycles() != plain.Cycles() {
			t.Errorf("secret=%d: %d cycles armed vs %d unarmed", secret, armed.Cycles(), plain.Cycles())
		}
		if armed.CommitDigest() != plain.CommitDigest() || armed.MemDigest() != plain.MemDigest() {
			t.Errorf("secret=%d: committed streams diverge with spec watch armed", secret)
		}
	}
}

func TestSpecWatchResetSemantics(t *testing.T) {
	prog := mispredictStormProg()

	// A caller-armed hook survives Reset, like MemWatch.
	core := New(DefaultConfig(), prog)
	core.SetSpecWatch(func(SpecEvent) {})
	core.Reset(prog)
	if !core.SpecWatchArmed() {
		t.Error("caller-armed spec watch did not survive Reset")
	}
	core.SetSpecWatch(nil)
	core.Reset(prog)
	if core.SpecWatchArmed() {
		t.Error("disarmed spec watch re-armed itself with no default set")
	}

	// A default-armed hook follows the process default across Reset.
	prev := SetSpecWatchDefault(func(SpecEvent) {})
	defer SetSpecWatchDefault(prev)
	core2 := New(DefaultConfig(), prog)
	if !core2.SpecWatchArmed() {
		t.Fatal("New did not pick up the process default spec watch")
	}
	SetSpecWatchDefault(nil)
	core2.Reset(prog)
	if core2.SpecWatchArmed() {
		t.Error("default-armed spec watch survived Reset after the default was cleared")
	}
}

type namedProg struct {
	name string
	prog *isa.Program
}

type namedCfg struct {
	name string
	cfg  Config
}

// specStreamProgs are the programs whose spec-event streams the tracer and
// replay tests examine: nested and cold-target wrong paths, a mispredict
// storm, calls and returns, stores feeding loads, and both outcomes of a
// secure branch.
func specStreamProgs() []namedProg {
	return []namedProg{
		{"nested", wrongPathNestedProg()},
		{"coldtarget", wrongPathColdTargetProg()},
		{"storm", mispredictStormProg()},
		{"callret", callRetProg()},
		{"mispredict", mispredictHeavyProg()},
		{"storeload", storeLoadProg()},
		{"secure0", secureBranchProg(0)},
		{"secure1", secureBranchProg(1)},
	}
}

// specStreamCfgs are the core configurations the spec-stream programs run
// under.
func specStreamCfgs() []namedCfg {
	return []namedCfg{{"default", DefaultConfig()}, {"secure", SecureConfig()}}
}

// strandedEvents counts the per-uop events of a resolved stream that are
// still speculative although their seq is at or below the highest seq any
// SpecCommit retired: work the run settled that the tracer did not.
func strandedEvents(events []SpecEvent) int {
	var lastCommit uint64
	for _, ev := range events {
		if ev.Kind == SpecCommit {
			lastCommit = max(lastCommit, ev.Seq)
		}
	}
	n := 0
	for _, ev := range events {
		switch ev.Kind {
		case SpecBPUpdate, SpecCommit, SpecFlush:
		default:
			if ev.Disp == DispSpeculative && ev.Seq <= lastCommit {
				n++
			}
		}
	}
	return n
}

// TestTracerDispositionsAndRendering: on every spec-stream program under
// both configurations the tracer must resolve every event the run settled,
// including the IL1 fills charged to the fetch of an ALU op, which emits no
// SpecCommit of its own. The mispredict storm must then show squashed and
// committed work and render in both trace formats.
func TestTracerDispositionsAndRendering(t *testing.T) {
	for _, cfg := range specStreamCfgs() {
		for _, p := range specStreamProgs() {
			t.Run(cfg.name+"/"+p.name, func(t *testing.T) {
				tr := NewTracer(1 << 16)
				core := New(cfg.cfg, p.prog)
				core.SetSpecWatch(tr.Record)
				if err := core.Run(); err != nil {
					t.Fatal(err)
				}
				if tr.Dropped() != 0 {
					t.Fatalf("ring too small: %d dropped", tr.Dropped())
				}
				if n := strandedEvents(tr.Events()); n != 0 {
					t.Errorf("%d events at or below the last committed seq left speculative", n)
				}
			})
		}
	}

	prog := mispredictStormProg()
	tr := NewTracer(1 << 14)
	core := New(DefaultConfig(), prog)
	core.SetSpecWatch(tr.Record)
	if err := core.Run(); err != nil {
		t.Fatal(err)
	}
	if tr.Dropped() != 0 {
		t.Fatalf("ring too small for the storm: %d dropped", tr.Dropped())
	}

	// The squashed wrong-path profile must be non-empty for the storm.
	events := tr.Events()
	var sq, committed uint64
	for _, ev := range events {
		switch ev.Disp {
		case DispSquashed:
			sq++
		case DispCommitted:
			committed++
		}
	}
	if sq == 0 {
		t.Error("no event resolved to squashed despite mispredict flushes")
	}
	if committed == 0 {
		t.Error("no event resolved to committed")
	}
	if got := tr.SquashedCounts(); len(got) == 0 {
		t.Error("SquashedCounts empty")
	}

	var text strings.Builder
	if err := tr.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "MISPREDICT") {
		t.Error("text trace missing mispredict marker")
	}
	if !strings.Contains(text.String(), "cause=mispredict") {
		t.Error("text trace missing flush cause")
	}

	var js strings.Builder
	if err := tr.WriteChromeJSON(&js); err != nil {
		t.Fatal(err)
	}
	out := js.String()
	if !strings.HasPrefix(out, "[") || !strings.Contains(out, `"ph":"i"`) {
		t.Error("chrome trace not in trace_event array format")
	}
}

func TestTracerRingWrap(t *testing.T) {
	tr := NewTracer(4)
	for seq := uint64(0); seq < 10; seq++ {
		tr.Record(SpecEvent{Kind: SpecFetch, Seq: seq, Cycle: seq})
	}
	if tr.Total() != 10 || tr.Dropped() != 6 {
		t.Fatalf("total=%d dropped=%d, want 10, 6", tr.Total(), tr.Dropped())
	}
	events := tr.Events()
	if len(events) != 4 || events[0].Seq != 6 || events[3].Seq != 9 {
		t.Fatalf("retained window wrong: %+v", events)
	}
	// A flush resolving a seq that fell off the ring must not corrupt the
	// retained window; seqs still inside resolve to squashed.
	tr.Record(SpecEvent{Kind: SpecFlush, Seq: 5})
	for _, ev := range tr.Events() {
		if ev.Kind == SpecFetch && ev.Seq >= 6 && ev.Disp != DispSquashed {
			t.Errorf("seq %d not squashed after covering flush", ev.Seq)
		}
	}
}

// TestSpecWatchStaysOnReplay: arming a spec watch — explicitly before the
// run, explicitly mid-run, or through the process default — must leave the
// core fetching through the superblock replay engine.
func TestSpecWatchStaysOnReplay(t *testing.T) {
	prog := mispredictStormProg()
	arms := []struct {
		name string
		run  func(t *testing.T) *Core
	}{
		{"explicit", func(t *testing.T) *Core {
			_, c := collectSpec(t, DefaultConfig(), prog)
			return c
		}},
		{"mid-run", func(t *testing.T) *Core {
			c := New(DefaultConfig(), prog)
			for !c.Halted() {
				if !c.SpecWatchArmed() && c.Cycles() >= 150 {
					c.SetSpecWatch(func(SpecEvent) {})
				}
				if err := c.StepCycle(); err != nil {
					t.Fatal(err)
				}
			}
			if !c.SpecWatchArmed() {
				t.Fatal("program halted before the watch was armed")
			}
			return c
		}},
		{"default", func(t *testing.T) *Core {
			prev := SetSpecWatchDefault(func(SpecEvent) {})
			defer SetSpecWatchDefault(prev)
			c := New(DefaultConfig(), prog)
			if !c.SpecWatchArmed() {
				t.Fatal("New did not pick up the process default spec watch")
			}
			if err := c.Run(); err != nil {
				t.Fatal(err)
			}
			return c
		}},
	}
	for _, arm := range arms {
		t.Run(arm.name, func(t *testing.T) {
			c := arm.run(t)
			if c.SBStats.Replays == 0 {
				t.Error("armed core replayed nothing")
			}
		})
	}
}

// TestSpecStreamReplayMatchesWalk: the spec event stream a core emits —
// fetches, predictor lookups, and the IL1 fills its fetches stamp, alongside
// every execute- and retire-time event — must equal, event for event, the
// stream pinned in testdata/specstreams/<cfg>_<prog>_arm<cycle>.json, with
// the watch armed at cycle 0 and mid-run. A file holds the event count, the
// per-kind counts, an ordered hash over every field of every event, the
// run's statistics and its commit digest. The files were recorded from the
// per-instruction decode walk the replay engine replaced; -update rewrites
// them from the replay engine.
func TestSpecStreamReplayMatchesWalk(t *testing.T) {
	for _, cfg := range specStreamCfgs() {
		for _, p := range specStreamProgs() {
			for _, armAt := range []uint64{0, 150} {
				golden := fmt.Sprintf("specstreams/%s_%s_arm%d", cfg.name, p.name, armAt)
				t.Run(fmt.Sprintf("%s/%s/arm%d", cfg.name, p.name, armAt), func(t *testing.T) {
					c := New(cfg.cfg, p.prog)
					var events []SpecEvent
					for !c.Halted() {
						if !c.SpecWatchArmed() && c.Cycles() >= armAt {
							c.SetSpecWatch(func(ev SpecEvent) { events = append(events, ev) })
						}
						if err := c.StepCycle(); err != nil {
							t.Fatal(err)
						}
					}
					if len(events) == 0 {
						t.Fatalf("spec watch armed at cycle %d observed nothing", armAt)
					}
					if c.SBStats.Replays == 0 {
						t.Fatal("core replayed nothing")
					}
					checkGolden(t, golden, specSurfaceOf(events, c))
				})
			}
		}
	}
}
