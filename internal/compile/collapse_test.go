package compile

import (
	"testing"

	"repro/internal/emu"
	"repro/internal/lang"
	"repro/internal/mem"
	"repro/internal/pipeline"
)

// thenChain builds if(b0){if(b1){...{x=42}}} over the bits of s — the shape
// the paper's §IV-E collapse optimization targets. iters > 1 wraps the chain
// in a repetition loop so steady-state costs dominate cold-start effects.
func thenChain(depth int, secret int64, iters int) *lang.Program {
	body := []lang.Stmt{lang.Set("x", lang.N(42))}
	for i := depth - 1; i >= 0; i-- {
		cond := lang.B(lang.And, lang.B(lang.Shr, lang.V("s"), lang.N(int64(i))), lang.N(1))
		body = []lang.Stmt{lang.SecretIf(cond, body, nil)}
	}
	if iters > 1 {
		body = append(body, lang.Set("i", lang.B(lang.Add, lang.V("i"), lang.N(1))))
		body = []lang.Stmt{lang.Loop(lang.B(lang.Lt, lang.V("i"), lang.N(int64(iters))), body)}
	}
	return &lang.Program{
		Vars: []*lang.VarDecl{
			{Name: "s", Init: secret, Secret: true},
			{Name: "x", Init: 7},
			{Name: "i", Init: 0},
		},
		Body: body,
	}
}

// TestCollapsePreservesSemanticsEndToEnd compiles the collapsed and
// uncollapsed programs with every backend and checks agreement for secrets
// that hit all combinations of the chain.
func TestCollapsePreservesSemanticsEndToEnd(t *testing.T) {
	for _, secret := range []int64{0, 1, 0b111, 0b101, 0b011} {
		orig := thenChain(3, secret, 1)
		collapsed := thenChain(3, secret, 1)
		if n := lang.CollapseNested(collapsed); n != 2 {
			t.Fatalf("collapses = %d, want 2", n)
		}
		want := runOutput(t, MustCompile(orig, Plain), false)["x"]
		for _, mode := range []Mode{Plain, SeMPE, CTE} {
			secure := mode == SeMPE
			got := runOutput(t, MustCompile(collapsed, mode), secure)["x"]
			if got != want {
				t.Errorf("secret=%#b mode=%v: x=%d want %d", secret, mode, got, want)
			}
		}
	}
}

// TestCollapseReducesHardwareNesting verifies the optimization's purpose:
// fewer sJMPs, shallower jbTable/SPM usage, and fewer dual-path cycles.
func TestCollapseReducesHardwareNesting(t *testing.T) {
	run := func(p *lang.Program) *pipeline.Core {
		out := MustCompile(p, SeMPE)
		core := pipeline.New(pipeline.SecureConfig(), out.Prog)
		if err := core.Run(); err != nil {
			t.Fatal(err)
		}
		return core
	}
	orig := run(thenChain(5, 0b10101, 50))
	coll := thenChain(5, 0b10101, 50)
	lang.CollapseNested(coll)
	opt := run(coll)

	if opt.Stats.SJmps >= orig.Stats.SJmps {
		t.Errorf("sJMPs not reduced: %d -> %d", orig.Stats.SJmps, opt.Stats.SJmps)
	}
	if opt.Stats.MaxNestDepth >= orig.Stats.MaxNestDepth {
		t.Errorf("nesting not reduced: %d -> %d", orig.Stats.MaxNestDepth, opt.Stats.MaxNestDepth)
	}
	if opt.Stats.Cycles >= orig.Stats.Cycles {
		t.Errorf("cycles not reduced: %d -> %d", orig.Stats.Cycles, opt.Stats.Cycles)
	}
}

// TestCollapseEnablesDeepPrograms: a 40-deep then-chain exceeds the SPM
// slots uncollapsed, but compiles and runs after collapsing.
func TestCollapseEnablesDeepPrograms(t *testing.T) {
	deep := thenChain(40, 0, 1)
	if _, err := Compile(deep, SeMPE); err == nil {
		t.Fatal("40-deep chain compiled without collapse; expected nesting error")
	}
	if n := lang.CollapseNested(deep); n != 39 {
		t.Fatalf("collapses = %d, want 39", n)
	}
	out, err := Compile(deep, SeMPE)
	if err != nil {
		t.Fatal(err)
	}
	m := emu.New(emu.SeMPE, out.Prog, mem.DefaultSPMConfig().Slots)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	addr, _ := out.ResultAddr("x")
	if got := m.Mem.Read64(addr); got != 7 {
		t.Errorf("x = %d, want 7 (secret 0 takes no branch)", got)
	}
}
