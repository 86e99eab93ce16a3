package compile

import (
	"math/rand"
	"testing"

	"repro/internal/emu"
	"repro/internal/lang"
	"repro/internal/mem"
	"repro/internal/pipeline"
)

// runOutput executes a compiled program on the functional machine in the
// mode matching its backend and returns the result-slot values by name.
func runOutput(t *testing.T, out *Output, secure bool) map[string]uint64 {
	t.Helper()
	mode := emu.Legacy
	if secure {
		mode = emu.SeMPE
	}
	m := emu.New(mode, out.Prog, mem.DefaultSPMConfig().Slots)
	m.MaxInsts = 50_000_000
	if err := m.Run(); err != nil {
		t.Fatalf("%v run: %v\n%s", out.Mode, err, out.Prog.Disassemble())
	}
	res := make(map[string]uint64)
	for _, name := range out.VarOrder {
		addr, err := out.ResultAddr(name)
		if err != nil {
			t.Fatal(err)
		}
		res[name] = m.Mem.Read64(addr)
	}
	return res
}

// checkAllBackendsAgree compiles p three ways and checks that the final
// variable values agree (CTE and plain on the legacy machine, SeMPE on the
// secure machine).
func checkAllBackendsAgree(t *testing.T, p *lang.Program) map[string]uint64 {
	t.Helper()
	plain := runOutput(t, MustCompile(p, Plain), false)
	sempeOut := MustCompile(p, SeMPE)
	sempe := runOutput(t, sempeOut, true)
	cte := runOutput(t, MustCompile(p, CTE), false)
	for name, want := range plain {
		if got := sempe[name]; got != want {
			t.Errorf("SeMPE %s = %d, plain = %d\n%s", name, got, want, sempeOut.Prog.Disassemble())
		}
		if got := cte[name]; got != want {
			t.Errorf("CTE %s = %d, plain = %d", name, got, want)
		}
	}
	// The SeMPE binary must also run correctly (one path only) on a legacy
	// machine: backward compatibility.
	legacy := runOutput(t, sempeOut, false)
	for name, want := range plain {
		if got := legacy[name]; got != want {
			t.Errorf("SeMPE-binary-on-legacy %s = %d, plain = %d", name, got, want)
		}
	}
	return plain
}

func TestSimpleSecretIf(t *testing.T) {
	for _, secret := range []int64{0, 1} {
		p := &lang.Program{
			Name: "simple",
			Vars: []*lang.VarDecl{
				{Name: "s", Init: secret, Secret: true},
				{Name: "x", Init: 10},
				{Name: "y", Init: 0},
			},
			Body: []lang.Stmt{
				lang.SecretIf(lang.V("s"),
					[]lang.Stmt{lang.Set("y", lang.B(lang.Add, lang.V("x"), lang.N(1)))},
					[]lang.Stmt{lang.Set("y", lang.B(lang.Mul, lang.V("x"), lang.N(3)))},
				),
			},
		}
		res := checkAllBackendsAgree(t, p)
		want := uint64(30)
		if secret != 0 {
			want = 11
		}
		if res["y"] != want {
			t.Errorf("secret=%d: y=%d want %d", secret, res["y"], want)
		}
	}
}

func TestNestedSecretIf(t *testing.T) {
	for a := int64(0); a < 2; a++ {
		for b := int64(0); b < 2; b++ {
			// The paper's Fig. 2 example: j and k updates under nested
			// secret conditions A and B/C.
			p := &lang.Program{
				Name: "fig2",
				Vars: []*lang.VarDecl{
					{Name: "A", Init: a, Secret: true},
					{Name: "C", Init: b, Secret: true},
					{Name: "j", Init: 100},
					{Name: "k", Init: 200},
				},
				Body: []lang.Stmt{
					lang.SecretIf(lang.V("A"),
						[]lang.Stmt{lang.Set("j", lang.B(lang.Add, lang.V("j"), lang.N(1)))},
						[]lang.Stmt{
							lang.SecretIf(lang.V("C"),
								[]lang.Stmt{lang.Set("k", lang.B(lang.Add, lang.V("k"), lang.N(1)))},
								[]lang.Stmt{lang.Set("k", lang.B(lang.Sub, lang.V("k"), lang.N(1)))},
							),
						},
					),
				},
			}
			res := checkAllBackendsAgree(t, p)
			wantJ, wantK := uint64(100), uint64(200)
			if a != 0 {
				wantJ = 101
			} else if b != 0 {
				wantK = 201
			} else {
				wantK = 199
			}
			if res["j"] != wantJ || res["k"] != wantK {
				t.Errorf("A=%d C=%d: j=%d k=%d want %d %d", a, b, res["j"], res["k"], wantJ, wantK)
			}
		}
	}
}

func TestSecretIfWithArrayShadow(t *testing.T) {
	// The secret paths write a live-out array: the SeMPE backend must
	// privatize it with shadow copies and CMOV-merge afterwards.
	for _, secret := range []int64{0, 1} {
		p := &lang.Program{
			Name: "shadow",
			Vars: []*lang.VarDecl{
				{Name: "s", Init: secret, Secret: true},
				{Name: "sum", Init: 0},
				{Name: "i", Init: 0},
			},
			Arrays: []*lang.ArrayDecl{
				{Name: "out", Len: 8, LiveOut: true},
			},
			Body: []lang.Stmt{
				lang.SecretIf(lang.V("s"),
					[]lang.Stmt{
						lang.Put("out", lang.N(0), lang.N(111)),
						lang.Put("out", lang.N(3), lang.N(333)),
					},
					[]lang.Stmt{
						lang.Put("out", lang.N(0), lang.N(222)),
						lang.Put("out", lang.N(5), lang.N(555)),
					},
				),
				// Read the array after the region so it is observably live.
				lang.Set("i", lang.N(0)),
				lang.Loop(lang.B(lang.Lt, lang.V("i"), lang.N(8)), []lang.Stmt{
					lang.Set("sum", lang.B(lang.Add, lang.V("sum"), lang.At("out", lang.V("i")))),
					lang.Set("i", lang.B(lang.Add, lang.V("i"), lang.N(1))),
				}),
			},
		}
		res := checkAllBackendsAgree(t, p)
		want := uint64(222 + 555)
		if secret != 0 {
			want = 111 + 333
		}
		if res["sum"] != want {
			t.Errorf("secret=%d: sum=%d want %d", secret, res["sum"], want)
		}
	}
}

func TestSecretIfInLoop(t *testing.T) {
	// Modular-exponentiation shape: a secret branch exercised per loop
	// iteration (the paper's Fig. 1 motif with key bits).
	for _, key := range []int64{0b1011, 0b0100, 0} {
		p := modexpShape(key)
		res := checkAllBackendsAgree(t, p)
		// Reference: acc = acc*3+1 per set bit, acc += 7 otherwise, 4 bits.
		acc := uint64(1)
		for i := 0; i < 4; i++ {
			if key>>i&1 != 0 {
				acc = acc*3 + 1
			} else {
				acc += 7
			}
		}
		if res["acc"] != acc {
			t.Errorf("key=%b: acc=%d want %d", key, res["acc"], acc)
		}
	}
}

func modexpShape(key int64) *lang.Program {
	return &lang.Program{
		Name: "modexp",
		Vars: []*lang.VarDecl{
			{Name: "key", Init: key, Secret: true},
			{Name: "acc", Init: 1},
			{Name: "i", Init: 0},
			{Name: "bit", Init: 0},
		},
		Body: []lang.Stmt{
			lang.Loop(lang.B(lang.Lt, lang.V("i"), lang.N(4)), []lang.Stmt{
				lang.Set("bit", lang.B(lang.And, lang.B(lang.Shr, lang.V("key"), lang.V("i")), lang.N(1))),
				lang.SecretIf(lang.V("bit"),
					[]lang.Stmt{lang.Set("acc", lang.B(lang.Add, lang.B(lang.Mul, lang.V("acc"), lang.N(3)), lang.N(1)))},
					[]lang.Stmt{lang.Set("acc", lang.B(lang.Add, lang.V("acc"), lang.N(7)))},
				),
				lang.Set("i", lang.B(lang.Add, lang.V("i"), lang.N(1))),
			}),
		},
	}
}

func TestPublicControlFlowInsideSecretPath(t *testing.T) {
	// A public loop and public if inside a secret path must work under
	// SeMPE (they are ordinary predicted branches inside the SecBlock).
	for _, secret := range []int64{0, 1} {
		p := &lang.Program{
			Name: "mixed",
			Vars: []*lang.VarDecl{
				{Name: "s", Init: secret, Secret: true},
				{Name: "acc", Init: 0},
				{Name: "i", Init: 0},
			},
			Body: []lang.Stmt{
				lang.SecretIf(lang.V("s"),
					[]lang.Stmt{
						lang.Set("i", lang.N(0)),
						lang.Loop(lang.B(lang.Lt, lang.V("i"), lang.N(10)), []lang.Stmt{
							lang.PublicIf(lang.B(lang.And, lang.V("i"), lang.N(1)),
								[]lang.Stmt{lang.Set("acc", lang.B(lang.Add, lang.V("acc"), lang.N(2)))},
								[]lang.Stmt{lang.Set("acc", lang.B(lang.Add, lang.V("acc"), lang.N(5)))},
							),
							lang.Set("i", lang.B(lang.Add, lang.V("i"), lang.N(1))),
						}),
					},
					[]lang.Stmt{lang.Set("acc", lang.N(1))},
				),
			},
		}
		// CTE cannot express a loop inside a secret region; check plain vs
		// SeMPE only.
		plain := runOutput(t, MustCompile(p, Plain), false)
		sempe := runOutput(t, MustCompile(p, SeMPE), true)
		if plain["acc"] != sempe["acc"] {
			t.Errorf("secret=%d: plain acc=%d sempe acc=%d", secret, plain["acc"], sempe["acc"])
		}
		want := uint64(1)
		if secret != 0 {
			want = 5*2 + 5*5
		}
		if plain["acc"] != want {
			t.Errorf("secret=%d: acc=%d want %d", secret, plain["acc"], want)
		}
	}
}

func TestCTELoopInSecretRegionRejected(t *testing.T) {
	p := &lang.Program{
		Vars: []*lang.VarDecl{{Name: "s", Init: 1, Secret: true}, {Name: "x", Init: 0}},
		Body: []lang.Stmt{
			lang.SecretIf(lang.V("s"),
				[]lang.Stmt{lang.Loop(lang.V("x"), []lang.Stmt{lang.Set("x", lang.N(0))})},
				nil,
			),
		},
	}
	if _, err := Compile(p, CTE); err == nil {
		t.Fatal("CTE compile of loop inside secret region succeeded, want error")
	}
	if _, err := Compile(p, Plain); err != nil {
		t.Fatalf("plain compile failed: %v", err)
	}
}

func TestDeepNestingLimits(t *testing.T) {
	deep := func(depth int) *lang.Program {
		body := []lang.Stmt{lang.Set("x", lang.N(1))}
		for i := 0; i < depth; i++ {
			body = []lang.Stmt{lang.SecretIf(lang.V("s"), body, []lang.Stmt{lang.Set("x", lang.N(2))})}
		}
		return &lang.Program{
			Vars: []*lang.VarDecl{{Name: "s", Init: 1, Secret: true}, {Name: "x", Init: 0}},
			Body: body,
		}
	}
	// Depth 10 compiles everywhere.
	if _, err := Compile(deep(10), SeMPE); err != nil {
		t.Errorf("SeMPE depth 10: %v", err)
	}
	if _, err := Compile(deep(10), CTE); err != nil {
		t.Errorf("CTE depth 10: %v", err)
	}
	// CTE is capped at the mask-register depth.
	if _, err := Compile(deep(11), CTE); err == nil {
		t.Error("CTE depth 11 compiled, want error")
	}
	// SeMPE is capped at the SPM snapshot depth.
	if _, err := Compile(deep(31), SeMPE); err == nil {
		t.Error("SeMPE depth 31 compiled, want error")
	}
}

func TestCompiledSecureCounts(t *testing.T) {
	p := modexpShape(0b1010)
	out := MustCompile(p, SeMPE)
	sjmp, eos := out.Prog.CountSecure()
	if sjmp != 1 || eos != 1 {
		t.Errorf("static secure counts: sjmp=%d eos=%d, want 1,1", sjmp, eos)
	}
	plainOut := MustCompile(p, Plain)
	if s, e := plainOut.Prog.CountSecure(); s != 0 || e != 0 {
		t.Errorf("plain binary contains secure instructions: %d %d", s, e)
	}
	cteOut := MustCompile(p, CTE)
	if s, e := cteOut.Prog.CountSecure(); s != 0 || e != 0 {
		t.Errorf("CTE binary contains secure instructions: %d %d", s, e)
	}
}

// TestRandomSecretProgramsAgree generates random nested secret/public
// control flow over scalars and checks all three backends agree for several
// secrets — the semantic-preservation property test.
func TestRandomSecretProgramsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		for _, secret := range []int64{0, 1, 5} {
			p := randomSecretProgram(rng, secret)
			plain := runOutput(t, MustCompile(p, Plain), false)
			sempe := runOutput(t, MustCompile(p, SeMPE), true)
			cte := runOutput(t, MustCompile(p, CTE), false)
			for name, want := range plain {
				if sempe[name] != want {
					t.Fatalf("trial %d secret %d: SeMPE %s=%d plain=%d",
						trial, secret, name, sempe[name], want)
				}
				if cte[name] != want {
					t.Fatalf("trial %d secret %d: CTE %s=%d plain=%d",
						trial, secret, name, cte[name], want)
				}
			}
		}
	}
}

// randomSecretProgram builds a random tree of secret ifs (depth <= 4) whose
// leaves are random arithmetic on a handful of variables.
func randomSecretProgram(rng *rand.Rand, secret int64) *lang.Program {
	vars := []*lang.VarDecl{
		{Name: "s", Init: secret, Secret: true},
		{Name: "a", Init: int64(rng.Intn(100))},
		{Name: "b", Init: int64(rng.Intn(100))},
		{Name: "c", Init: int64(rng.Intn(100))},
	}
	names := []string{"a", "b", "c"}
	ops := []lang.BinOp{lang.Add, lang.Sub, lang.Mul, lang.Xor, lang.And, lang.Or}
	randExpr := func() lang.Expr {
		e := lang.Expr(lang.V(names[rng.Intn(len(names))]))
		for i := 0; i < rng.Intn(3); i++ {
			if rng.Intn(2) == 0 {
				e = lang.B(ops[rng.Intn(len(ops))], e, lang.V(names[rng.Intn(len(names))]))
			} else {
				e = lang.B(ops[rng.Intn(len(ops))], e, lang.N(int64(rng.Intn(50))))
			}
		}
		return e
	}
	var randStmts func(depth int) []lang.Stmt
	randStmts = func(depth int) []lang.Stmt {
		var ss []lang.Stmt
		n := rng.Intn(3) + 1
		for i := 0; i < n; i++ {
			if depth < 4 && rng.Intn(3) == 0 {
				cond := lang.B(lang.And, lang.B(lang.Shr, lang.V("s"), lang.N(int64(rng.Intn(3)))), lang.N(1))
				ss = append(ss, lang.SecretIf(cond, randStmts(depth+1), randStmts(depth+1)))
			} else {
				ss = append(ss, lang.Set(names[rng.Intn(len(names))], randExpr()))
			}
		}
		return ss
	}
	return &lang.Program{Name: "rand", Vars: vars, Body: randStmts(0)}
}

func TestTaintAnalysis(t *testing.T) {
	p := &lang.Program{
		Vars: []*lang.VarDecl{
			{Name: "key", Init: 3, Secret: true},
			{Name: "derived", Init: 0},
			{Name: "pub", Init: 1},
		},
		Arrays: []*lang.ArrayDecl{{Name: "tbl", Len: 4}},
		Body: []lang.Stmt{
			lang.Set("derived", lang.B(lang.And, lang.V("key"), lang.N(1))),
			// Unmarked secret branch: must be flagged.
			lang.PublicIf(lang.V("derived"), []lang.Stmt{lang.Set("pub", lang.N(2))}, nil),
			// Secret-indexed access: must be flagged.
			lang.Set("pub", lang.At("tbl", lang.V("key"))),
		},
	}
	rep := lang.AnalyzeTaint(p)
	if len(rep.UnmarkedBranches) != 1 {
		t.Errorf("unmarked branches: %v", rep.UnmarkedBranches)
	}
	if len(rep.SecretIndices) == 0 {
		t.Errorf("secret indices not flagged")
	}
	if rep.Clean() {
		t.Error("report should not be clean")
	}

	good := modexpShape(5)
	if rep := lang.AnalyzeTaint(good); !rep.Clean() {
		t.Errorf("well-annotated program flagged: %+v", rep)
	}
}

func TestSeMPEBinaryRunsOnPipeline(t *testing.T) {
	// End-to-end: compiled SeMPE binary on the cycle-level secure core,
	// compared against the functional machine.
	out := MustCompile(modexpShape(0b1101), SeMPE)
	ref := emu.New(emu.SeMPE, out.Prog, mem.DefaultSPMConfig().Slots)
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	core := pipeline.New(pipeline.SecureConfig(), out.Prog)
	if err := core.Run(); err != nil {
		t.Fatal(err)
	}
	accAddr, _ := out.ResultAddr("acc")
	if g, w := core.Mem().Read64(accAddr), ref.Mem.Read64(accAddr); g != w {
		t.Errorf("pipeline acc=%d emu acc=%d", g, w)
	}
}

// TestMarksEmitNoCode: markers at the top level, in a loop body and in
// both paths of a secret if compile to code labels and no bytes, under
// every backend.
func TestMarksEmitNoCode(t *testing.T) {
	build := func(marks bool) *lang.Program {
		m := func(name string) []lang.Stmt {
			if marks {
				return []lang.Stmt{lang.Mark(name)}
			}
			return nil
		}
		cat := func(ss ...[]lang.Stmt) []lang.Stmt {
			var out []lang.Stmt
			for _, s := range ss {
				out = append(out, s...)
			}
			return out
		}
		return &lang.Program{
			Name:   "marks",
			Vars:   []*lang.VarDecl{{Name: "s", Init: 1, Secret: true}, {Name: "i"}, {Name: "x"}},
			Arrays: []*lang.ArrayDecl{{Name: "a", Len: 4, LiveOut: true}},
			Body: cat(m("top"),
				[]lang.Stmt{lang.Loop(lang.B(lang.Lt, lang.V("i"), lang.N(3)), cat(
					m("loop"),
					[]lang.Stmt{lang.Set("i", lang.B(lang.Add, lang.V("i"), lang.N(1)))}))},
				[]lang.Stmt{lang.SecretIf(lang.V("s"),
					cat(m("then"), []lang.Stmt{lang.Put("a", lang.N(1), lang.N(5))}),
					cat([]lang.Stmt{lang.Set("x", lang.N(2))}, m("else")))},
				m("end")),
		}
	}
	for _, mode := range []Mode{Plain, SeMPE, CTE} {
		marked, err := Compile(build(true), mode)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		bare, err := Compile(build(false), mode)
		if err != nil {
			t.Fatalf("%v without marks: %v", mode, err)
		}
		if string(marked.Prog.Code) != string(bare.Prog.Code) {
			t.Errorf("%v: the markers changed the code", mode)
		}
		end := marked.Prog.CodeBase + uint64(len(marked.Prog.Code))
		for _, name := range []string{"top", "loop", "then", "else", "end"} {
			if a, ok := marked.Prog.Symbols[name]; !ok || a < marked.Prog.CodeBase || a > end {
				t.Errorf("%v: marker %q at %#x (present %v), outside the code", mode, name, a, ok)
			}
		}
		if len(marked.Prog.Symbols) != len(bare.Prog.Symbols)+5 {
			t.Errorf("%v: %d symbols, want the unmarked %d plus five", mode, len(marked.Prog.Symbols), len(bare.Prog.Symbols))
		}
	}
}
