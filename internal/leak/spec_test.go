package leak

import (
	"reflect"
	"testing"

	"repro/internal/compile"
	"repro/internal/lang"
	"repro/internal/pipeline"
)

// specLeakProgram is the headline transient-leak demo: a secret-dependent
// branch whose condition loads from a cold line (so resolution takes a
// memory round-trip while fetch runs ahead down the predicted path), with a
// distinct array load on each side. On the unprotected baseline the
// mispredicted secret executes — and then squashes — the wrong side's load:
// a secret-dependent memory access that exists only in the transient window.
func specLeakProgram(secret uint64) *lang.Program {
	return &lang.Program{
		Name: "specleak",
		Vars: []*lang.VarDecl{{Name: "x", Init: 0}},
		Arrays: []*lang.ArrayDecl{
			{Name: "sa", Len: 8, Init: []uint64{secret}, Secret: true},
			{Name: "ta", Len: 8, Init: []uint64{11}, LiveOut: true},
			{Name: "tb", Len: 8, Init: []uint64{22}, LiveOut: true},
		},
		Body: []lang.Stmt{
			lang.SecretIf(lang.B(lang.Ne, lang.At("sa", lang.N(0)), lang.N(0)),
				[]lang.Stmt{lang.Set("x", lang.At("ta", lang.N(0)))},
				[]lang.Stmt{lang.Set("x", lang.At("tb", lang.N(0)))}),
			lang.Set("x", lang.B(lang.Add, lang.V("x"), lang.N(1))),
		},
	}
}

func observeSpecLeak(t *testing.T, mode compile.Mode, cfg pipeline.Config, secret uint64) (SpecObservation, *pipeline.Core, map[string]uint64) {
	t.Helper()
	out, err := compile.Compile(specLeakProgram(secret), mode)
	if err != nil {
		t.Fatal(err)
	}
	so, core, err := ObserveSpec(cfg, out.Prog)
	if err != nil {
		t.Fatal(err)
	}
	return so, core, out.ArrayAddrs
}

// committedAddrs decodes the commit-time memory trace (addr<<1|isWrite) into
// the set of committed access addresses — what MemWatch sees.
func committedAddrs(core *pipeline.Core) map[uint64]bool {
	m := make(map[uint64]bool, len(core.MemTrace))
	for _, rec := range core.MemTrace {
		m[rec>>1] = true
	}
	return m
}

// TestSpecWindowHeadlineDemo pins the PR's headline result end to end:
//
//  1. Baseline: the wrong-path touch set depends on the secret, the
//     secret-revealing access address is one of the two array slots, and
//     that address is invisible to the commit-time stream (what
//     MemWatch observes) of the same run.
//  2. SeMPE: no wrong-path memory access touches either secret-selected
//     array in any run, and the entire wrong-path footprint is
//     bit-identical across secrets.
func TestSpecWindowHeadlineDemo(t *testing.T) {
	// --- Baseline ---
	base := map[uint64]SpecObservation{}
	cores := map[uint64]*pipeline.Core{}
	var addrs map[string]uint64
	for _, secret := range []uint64{0, 1} {
		so, core, aa := observeSpecLeak(t, compile.Plain, pipeline.DefaultConfig(), secret)
		base[secret], cores[secret], addrs = so, core, aa
	}
	taAddr, tbAddr := addrs["ta"], addrs["tb"]
	if taAddr == 0 || tbAddr == 0 {
		t.Fatalf("array addresses missing: ta=%#x tb=%#x", taAddr, tbAddr)
	}

	if TouchSetsEqual(base[0], base[1]) {
		t.Fatalf("baseline wrong-path touch sets identical across secrets:\n s=0: %+v\n s=1: %+v",
			base[0], base[1])
	}

	// Exactly one secret mispredicts the cold branch; find it by its
	// squashed wrong-path load of ta[0] or tb[0].
	leaked := uint64(0)
	var wrongAddr uint64
	found := false
	for _, secret := range []uint64{0, 1} {
		for _, a := range []uint64{taAddr, tbAddr} {
			if ContainsAddr(base[secret].WrongPathLoads, a) {
				leaked, wrongAddr, found = secret, a, true
			}
		}
	}
	if !found {
		t.Fatalf("no wrong-path load of ta[0] (%#x) or tb[0] (%#x) on the baseline:\n s=0: %+v\n s=1: %+v",
			taAddr, tbAddr, base[0], base[1])
	}

	// The transient access is invisible at commit time: the same run's
	// committed memory stream — the only thing MemWatch can ever report —
	// does not contain the wrong-path address.
	if committedAddrs(cores[leaked])[wrongAddr] {
		t.Errorf("wrong-path address %#x also appears in the committed stream; demo does not isolate the transient window", wrongAddr)
	}
	// And the squashed load polluted the cache: the transient Spectre channel.
	if len(base[leaked].WrongPathFills) == 0 {
		t.Error("mispredicted run shows no wrong-path cache fills")
	}

	// --- SeMPE ---
	sec := map[uint64]SpecObservation{}
	for _, secret := range []uint64{0, 1} {
		so, _, _ := observeSpecLeak(t, compile.SeMPE, pipeline.SecureConfig(), secret)
		sec[secret] = so
		for _, a := range []uint64{taAddr, tbAddr} {
			if ContainsAddr(so.WrongPathLoads, a) || ContainsAddr(so.WrongPathStores, a) {
				t.Errorf("SeMPE secret=%d: wrong-path access to %#x; both paths must execute architecturally", secret, a)
			}
		}
		if so.FlushMispredicts != 0 {
			// The secret branch is an sJMP: it is never predicted, so it can
			// never mispredict. (Public control flow in this program is
			// static jumps, which do not mispredict either.)
			t.Errorf("SeMPE secret=%d: %d mispredict flushes; sJMP must not be predicted", secret, so.FlushMispredicts)
		}
	}
	if !reflect.DeepEqual(sec[0], sec[1]) {
		t.Errorf("SeMPE wrong-path footprint depends on the secret:\n s=0: %+v\n s=1: %+v", sec[0], sec[1])
	}
}

// TestObserveSpecCounterConsistency cross-checks the derived touch sets
// against the always-on Stats counters on the baseline demo run.
func TestObserveSpecCounterConsistency(t *testing.T) {
	for _, secret := range []uint64{0, 1} {
		so, _, _ := observeSpecLeak(t, compile.Plain, pipeline.DefaultConfig(), secret)
		if so.Dropped != 0 {
			t.Fatalf("secret=%d: tracer dropped %d events", secret, so.Dropped)
		}
		hasWrongPath := len(so.WrongPathLoads)+len(so.WrongPathStores)+len(so.WrongPathBranches) > 0
		if hasWrongPath && so.SquashedUops == 0 {
			t.Errorf("secret=%d: wrong-path touch sets but SquashedUops=0", secret)
		}
		if so.SquashedUops > 0 && so.WrongPathFetches < so.SquashedUops {
			t.Errorf("secret=%d: WrongPathFetches=%d < SquashedUops=%d", secret, so.WrongPathFetches, so.SquashedUops)
		}
	}
}
