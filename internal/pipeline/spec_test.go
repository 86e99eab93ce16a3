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

func TestTracerDispositionsAndRendering(t *testing.T) {
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

	// Every squashed per-uop event must postdate some flush's seq, and the
	// squashed wrong-path profile must be non-empty for the storm.
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
// run, explicitly mid-run, or through the process default — must leave a
// production core on the superblock replay engine for the whole run.
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
			if c.SBStats.LegacyOps != 0 || c.SBStats.Replays == 0 {
				t.Errorf("armed core left the replay engine: LegacyOps=%d Replays=%d, want 0 and > 0",
					c.SBStats.LegacyOps, c.SBStats.Replays)
			}
		})
	}
}

// TestSpecStreamReplayMatchesWalk: the spec event stream the replay engine
// emits — fetches, predictor lookups, and the IL1 fills its fetches stamp,
// alongside every execute- and retire-time event — must equal the
// reference walk's event for event (kinds, cycles, seqs, addresses,
// dispositions), with the watch armed at cycle 0 and mid-run.
func TestSpecStreamReplayMatchesWalk(t *testing.T) {
	progs := []struct {
		name string
		prog *isa.Program
	}{
		{"nested", wrongPathNestedProg()},
		{"coldtarget", wrongPathColdTargetProg()},
		{"storm", mispredictStormProg()},
		{"callret", callRetProg()},
		{"mispredict", mispredictHeavyProg()},
		{"storeload", storeLoadProg()},
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
	type result struct {
		events []SpecEvent
		stats  Stats
		sb     SuperblockStats
		digest uint64
	}
	run := func(t *testing.T, cfg Config, prog *isa.Program, armAt uint64, reference bool) result {
		c := New(cfg, prog)
		c.sbOff = reference
		var r result
		armed := false
		for !c.Halted() {
			if !armed && c.Cycles() >= armAt {
				armed = true
				c.SetSpecWatch(func(ev SpecEvent) { r.events = append(r.events, ev) })
			}
			if err := c.StepCycle(); err != nil {
				t.Fatal(err)
			}
		}
		r.stats, r.sb, r.digest = c.Stats, c.SBStats, c.CommitDigest()
		return r
	}
	for _, cfg := range cfgs {
		for _, p := range progs {
			for _, armAt := range []uint64{0, 150} {
				t.Run(fmt.Sprintf("%s/%s/arm%d", cfg.name, p.name, armAt), func(t *testing.T) {
					replay := run(t, cfg.cfg, p.prog, armAt, false)
					ref := run(t, cfg.cfg, p.prog, armAt, true)
					if replay.sb.LegacyOps != 0 || replay.sb.Replays == 0 {
						t.Fatalf("replay core: LegacyOps=%d Replays=%d", replay.sb.LegacyOps, replay.sb.Replays)
					}
					if ref.sb.Replays != 0 || ref.sb.LegacyOps == 0 {
						t.Fatalf("reference core: LegacyOps=%d Replays=%d", ref.sb.LegacyOps, ref.sb.Replays)
					}
					if replay.stats != ref.stats {
						t.Errorf("stats differ:\nreplay: %+v\nwalk:   %+v", replay.stats, ref.stats)
					}
					if replay.digest != ref.digest {
						t.Error("commit digests differ")
					}
					if len(replay.events) == 0 {
						t.Fatalf("spec watch armed at cycle %d observed nothing", armAt)
					}
					n := min(len(replay.events), len(ref.events))
					for i := 0; i < n; i++ {
						if replay.events[i] != ref.events[i] {
							t.Fatalf("spec event %d differs:\nreplay: %+v\nwalk:   %+v", i, replay.events[i], ref.events[i])
						}
					}
					if len(replay.events) != len(ref.events) {
						t.Fatalf("spec event streams differ in length: replay=%d walk=%d", len(replay.events), len(ref.events))
					}
				})
			}
		}
	}
}
