package pipeline

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/isa"
)

// TestPrototypeMatchesNew: a core vended by a prototype — on the cold
// construction path, the pooled-Reset path, and repeatedly — must produce a
// run snapshot DeepEqual to a fresh New core's, cycle count included. This
// is the equivalence BenchmarkSimulatorSpeed leans on when it measures
// prototype-vended cores.
func TestPrototypeMatchesNew(t *testing.T) {
	progs := []struct {
		name string
		prog *isa.Program
	}{
		{"storeload", storeLoadProg()},
		{"mispredict", mispredictHeavyProg()},
		{"callret", callRetProg()},
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
		for _, p := range progs {
			t.Run(fmt.Sprintf("%s/%s", cfg.name, p.name), func(t *testing.T) {
				want := freshSnap(t, cfg.cfg, p.prog)
				proto := NewPrototype(cfg.cfg, p.prog)
				for round := 0; round < 3; round++ {
					c := NewFromPrototype(proto)
					rec := armRecorder(c)
					mustRun(t, c)
					if got := snapshot(c, rec); !reflect.DeepEqual(got, want) {
						t.Fatalf("round %d: prototype core diverged from fresh core:\nfresh: %+v\nproto: %+v",
							round, want, got)
					}
					proto.Recycle(c)
				}
			})
		}
	}
}

// TestPrototypeForeignProgramDetaches: vending a pooled core for a program
// other than the prototype's must detach it from the program it last ran
// (no pre-decode entry or superblock of that program may survive Reset),
// the core must then run the foreign program exactly like a fresh core, and
// the prototype must keep vending correct cores for its own program
// afterwards.
func TestPrototypeForeignProgramDetaches(t *testing.T) {
	home := storeLoadProg()
	foreign := mispredictHeavyProg()
	cfg := DefaultConfig()
	proto := NewPrototype(cfg, home)

	// Seed the pool with a core that has run the home program.
	seeded := NewFromPrototype(proto)
	mustRun(t, seeded)
	proto.Recycle(seeded)

	wantForeign := freshSnap(t, cfg, foreign)
	c := proto.NewCoreFor(foreign)
	if c != seeded {
		t.Fatal("expected the recycled core back from the pool")
	}
	if len(c.decoded) != len(foreign.Code) || len(c.sbBlocks) != 0 {
		t.Fatalf("core reset onto a foreign program kept %d pre-decode entries (want %d) and %d superblocks",
			len(c.decoded), len(foreign.Code), len(c.sbBlocks))
	}
	for off, d := range c.decoded {
		if d.size != 0 {
			t.Fatalf("core reset onto a foreign program still carries a pre-decode entry at offset %d", off)
		}
	}
	rec := armRecorder(c)
	mustRun(t, c)
	if got := snapshot(c, rec); !reflect.DeepEqual(got, wantForeign) {
		t.Fatalf("foreign-program pooled core diverged from fresh core:\nfresh: %+v\npooled: %+v", wantForeign, got)
	}
	proto.Recycle(c)

	// The pooled core must detach from the foreign program in turn: the
	// prototype's own program still runs exactly like a fresh core, from
	// both the pooled and the cold path.
	wantHome := freshSnap(t, cfg, home)
	for round := 0; round < 2; round++ {
		c := NewFromPrototype(proto)
		rec := armRecorder(c)
		mustRun(t, c)
		if got := snapshot(c, rec); !reflect.DeepEqual(got, wantHome) {
			t.Fatalf("round %d: prototype core diverged after a foreign-program reset:\nfresh: %+v\nproto: %+v",
				round, wantHome, got)
		}
		proto.Recycle(c)
	}
}

// TestPrototypeRecycleStripsHooks: Reset preserves caller-armed hooks by
// design, so the pool boundary (Recycle) must strip them — a borrower must
// never observe another caller's watch hooks.
func TestPrototypeRecycleStripsHooks(t *testing.T) {
	proto := NewPrototype(DefaultConfig(), storeLoadProg())
	c := NewFromPrototype(proto)
	armRecorder(c)
	mustRun(t, c)
	proto.Recycle(c)
	c2 := NewFromPrototype(proto)
	if c2 != c {
		t.Fatal("expected the recycled core back from the pool")
	}
	if c2.MemWatch != nil || c2.SpecWatchArmed() {
		t.Error("recycled core still carries the previous borrower's hooks")
	}
}
