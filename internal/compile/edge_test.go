package compile

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/emu"
	"repro/internal/lang"
	"repro/internal/mem"
)

func TestTooManyScalarsRejected(t *testing.T) {
	var vars []*lang.VarDecl
	for i := 0; i < 40; i++ {
		vars = append(vars, &lang.VarDecl{Name: strings.Repeat("v", i+1)})
	}
	p := &lang.Program{Vars: vars}
	if _, err := Compile(p, Plain); err == nil || !strings.Contains(err.Error(), "too many scalars") {
		t.Errorf("err = %v, want scalar-limit error", err)
	}
}

func TestLiteralRangeRejected(t *testing.T) {
	p := &lang.Program{
		Vars: []*lang.VarDecl{{Name: "x"}},
		Body: []lang.Stmt{lang.Set("x", lang.N(1<<40))},
	}
	if _, err := Compile(p, Plain); err == nil {
		t.Error("40-bit literal accepted")
	}
}

func TestShadowInsideLoopRecopiesEachIteration(t *testing.T) {
	// A secret region with a live-out array inside a loop: each iteration
	// must re-copy and re-merge, and the final contents must match plain
	// semantics for every secret.
	build := func(secret int64) *lang.Program {
		return &lang.Program{
			Vars: []*lang.VarDecl{
				{Name: "s", Init: secret, Secret: true},
				{Name: "i", Init: 0},
				{Name: "bit", Init: 0},
				{Name: "sum", Init: 0},
			},
			Arrays: []*lang.ArrayDecl{{Name: "acc", Len: 4, LiveOut: true}},
			Body: []lang.Stmt{
				lang.Loop(lang.B(lang.Lt, lang.V("i"), lang.N(3)), []lang.Stmt{
					lang.Set("bit", lang.B(lang.And, lang.B(lang.Shr, lang.V("s"), lang.V("i")), lang.N(1))),
					lang.SecretIf(lang.V("bit"),
						[]lang.Stmt{lang.Put("acc", lang.N(0),
							lang.B(lang.Add, lang.At("acc", lang.N(0)), lang.N(10)))},
						[]lang.Stmt{lang.Put("acc", lang.N(1),
							lang.B(lang.Add, lang.At("acc", lang.N(1)), lang.N(1)))},
					),
					lang.Set("i", lang.B(lang.Add, lang.V("i"), lang.N(1))),
				}),
				lang.Set("sum", lang.B(lang.Add,
					lang.B(lang.Mul, lang.At("acc", lang.N(0)), lang.N(100)),
					lang.At("acc", lang.N(1)))),
			},
		}
	}
	for _, secret := range []int64{0, 0b111, 0b101, 0b010} {
		res := checkAllBackendsAgree(t, build(secret))
		// Reference: acc[0] gains 10 per set bit, acc[1] gains 1 per clear bit.
		set := 0
		for i := 0; i < 3; i++ {
			if secret>>i&1 == 1 {
				set++
			}
		}
		want := uint64(set*10*100 + (3 - set))
		if res["sum"] != want {
			t.Errorf("secret=%#b: sum=%d want %d", secret, res["sum"], want)
		}
	}
}

func TestNestedShadowComposition(t *testing.T) {
	// Nested secret regions both writing the same live-out array: the inner
	// region's shadows must compose with the outer region's remapping
	// (shadow-of-shadow).
	build := func(a, b int64) *lang.Program {
		return &lang.Program{
			Vars: []*lang.VarDecl{
				{Name: "A", Init: a, Secret: true},
				{Name: "B", Init: b, Secret: true},
				{Name: "out", Init: 0},
			},
			Arrays: []*lang.ArrayDecl{{Name: "buf", Len: 2, LiveOut: true}},
			Body: []lang.Stmt{
				lang.SecretIf(lang.V("A"),
					[]lang.Stmt{
						lang.Put("buf", lang.N(0), lang.N(1)),
						lang.SecretIf(lang.V("B"),
							[]lang.Stmt{lang.Put("buf", lang.N(1), lang.N(2))},
							[]lang.Stmt{lang.Put("buf", lang.N(1), lang.N(3))},
						),
					},
					[]lang.Stmt{lang.Put("buf", lang.N(0), lang.N(9))},
				),
				lang.Set("out", lang.B(lang.Add,
					lang.B(lang.Mul, lang.At("buf", lang.N(0)), lang.N(10)),
					lang.At("buf", lang.N(1)))),
			},
		}
	}
	wants := map[[2]int64]uint64{
		{1, 1}: 12, {1, 0}: 13, {0, 1}: 90, {0, 0}: 90,
	}
	for key, want := range wants {
		res := checkAllBackendsAgree(t, build(key[0], key[1]))
		if res["out"] != want {
			t.Errorf("A=%d B=%d: out=%d want %d", key[0], key[1], res["out"], want)
		}
	}
}

func TestScratchArrayNotShadowed(t *testing.T) {
	// An array written inside secret paths but never read outside them and
	// not live-out must not get shadow copies (the fast path the paper's
	// microbenchmarks rely on).
	p := &lang.Program{
		Vars: []*lang.VarDecl{
			{Name: "s", Init: 1, Secret: true},
			{Name: "x", Init: 0},
		},
		Arrays: []*lang.ArrayDecl{{Name: "scratch", Len: 8}},
		Body: []lang.Stmt{
			lang.SecretIf(lang.V("s"),
				[]lang.Stmt{
					lang.Put("scratch", lang.N(0), lang.N(5)),
					lang.Set("x", lang.At("scratch", lang.N(0))),
				},
				[]lang.Stmt{
					lang.Put("scratch", lang.N(0), lang.N(6)),
					lang.Set("x", lang.At("scratch", lang.N(0))),
				},
			),
		},
	}
	out := MustCompile(p, SeMPE)
	for name := range out.ArrayAddrs {
		if strings.Contains(name, "__sh") {
			t.Errorf("scratch array was shadowed: %s", name)
		}
	}
	// And the semantics still hold.
	res := runOutput(t, out, true)
	if res["x"] != 5 {
		t.Errorf("x = %d, want 5", res["x"])
	}
}

func TestLiveOutForcesShadow(t *testing.T) {
	p := &lang.Program{
		Vars: []*lang.VarDecl{{Name: "s", Init: 1, Secret: true}},
		Arrays: []*lang.ArrayDecl{
			{Name: "outbuf", Len: 4, LiveOut: true},
		},
		Body: []lang.Stmt{
			lang.SecretIf(lang.V("s"),
				[]lang.Stmt{lang.Put("outbuf", lang.N(0), lang.N(1))},
				[]lang.Stmt{lang.Put("outbuf", lang.N(0), lang.N(2))},
			),
		},
	}
	out := MustCompile(p, SeMPE)
	found := false
	for name := range out.ArrayAddrs {
		if strings.Contains(name, "outbuf__sh") {
			found = true
		}
	}
	if !found {
		t.Error("live-out array written in secret paths was not shadowed")
	}
}

func TestSelectExpression(t *testing.T) {
	for _, c := range []int64{0, 1, -5, 1 << 20} {
		p := &lang.Program{
			Vars: []*lang.VarDecl{
				{Name: "c", Init: c},
				{Name: "x", Init: 0},
				{Name: "y", Init: 0},
			},
			Body: []lang.Stmt{
				lang.Set("x", lang.Sel(lang.V("c"), lang.N(111), lang.N(222))),
				// Nested select as an operand.
				lang.Set("y", lang.B(lang.Add,
					lang.Sel(lang.V("c"), lang.N(1), lang.N(2)), lang.N(10))),
			},
		}
		out := MustCompile(p, Plain)
		m := emu.New(emu.Legacy, out.Prog, mem.DefaultSPMConfig().Slots)
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		xAddr, _ := out.ResultAddr("x")
		yAddr, _ := out.ResultAddr("y")
		wantX, wantY := uint64(222), uint64(12)
		if c != 0 {
			wantX, wantY = 111, 11
		}
		if got := m.Mem.Read64(xAddr); got != wantX {
			t.Errorf("c=%d: x=%d want %d", c, got, wantX)
		}
		if got := m.Mem.Read64(yAddr); got != wantY {
			t.Errorf("c=%d: y=%d want %d", c, got, wantY)
		}
	}
}

func TestSelectIsBranchFree(t *testing.T) {
	p := &lang.Program{
		Vars: []*lang.VarDecl{{Name: "c", Init: 1}, {Name: "x"}},
		Body: []lang.Stmt{lang.Set("x", lang.Sel(lang.V("c"), lang.N(1), lang.N(2)))},
	}
	out := MustCompile(p, Plain)
	dis := out.Prog.Disassemble()
	for _, forbidden := range []string{"beq", "bne", "blt", "bge"} {
		if strings.Contains(dis, forbidden) {
			t.Errorf("select lowered with a branch (%s):\n%s", forbidden, dis)
		}
	}
}

func TestCTEDivergentValuesStillMerge(t *testing.T) {
	// Division inside masked CTE paths: both sides compute, the select
	// keeps the right one; non-trapping division makes this safe.
	for _, secret := range []int64{0, 1} {
		p := &lang.Program{
			Vars: []*lang.VarDecl{
				{Name: "s", Init: secret, Secret: true},
				{Name: "x", Init: 100},
				{Name: "d", Init: 0}, // divide by zero on one path
			},
			Body: []lang.Stmt{
				lang.SecretIf(lang.V("s"),
					[]lang.Stmt{lang.Set("x", lang.B(lang.Div, lang.V("x"), lang.V("d")))},
					[]lang.Stmt{lang.Set("x", lang.B(lang.Div, lang.V("x"), lang.N(5)))},
				),
			},
		}
		res := checkAllBackendsAgree(t, p)
		want := uint64(20)
		if secret != 0 {
			want = ^uint64(0) // non-trapping divide-by-zero yields all ones
		}
		if res["x"] != want {
			t.Errorf("secret=%d: x=%#x want %#x", secret, res["x"], want)
		}
	}
}

// TestExprTooDeepIsAnError: an expression needing more temporaries than the
// compiler has is a named error in every backend, not a panic. A balanced
// Add tree over one variable needs one more temporary per level; depth 4
// fits the register plan and depth 5 does not.
func TestExprTooDeepIsAnError(t *testing.T) {
	tree := func(depth int) lang.Expr {
		var build func(d int) lang.Expr
		build = func(d int) lang.Expr {
			if d == 0 {
				return lang.V("x")
			}
			return lang.B(lang.Add, build(d-1), build(d-1))
		}
		return build(depth)
	}
	prog := func(depth int) *lang.Program {
		return &lang.Program{
			Vars: []*lang.VarDecl{{Name: "x", Init: 1}, {Name: "y"}},
			Body: []lang.Stmt{lang.Set("y", tree(depth))},
		}
	}
	for _, mode := range []Mode{Plain, SeMPE, CTE} {
		if _, err := Compile(prog(4), mode); err != nil {
			t.Errorf("%v: depth 4: %v", mode, err)
		}
		if _, err := Compile(prog(5), mode); !errors.Is(err, ErrExprTooDeep) {
			t.Errorf("%v: depth 5: err = %v, want ErrExprTooDeep", mode, err)
		}
	}
}
