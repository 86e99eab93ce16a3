package lang

import (
	"strings"
	"testing"
)

func TestValidateCatchesErrors(t *testing.T) {
	cases := []struct {
		name string
		p    *Program
		want string
	}{
		{
			"duplicate var",
			&Program{Vars: []*VarDecl{{Name: "x"}, {Name: "x"}}},
			"duplicate",
		},
		{
			"duplicate array/var",
			&Program{Vars: []*VarDecl{{Name: "x"}}, Arrays: []*ArrayDecl{{Name: "x", Len: 4}}},
			"duplicate",
		},
		{
			"zero-length array",
			&Program{Arrays: []*ArrayDecl{{Name: "a", Len: 0}}},
			"length",
		},
		{
			"oversized init",
			&Program{Arrays: []*ArrayDecl{{Name: "a", Len: 2, Init: []uint64{1, 2, 3}}}},
			"init longer",
		},
		{
			"undefined variable",
			&Program{Body: []Stmt{Set("x", N(1))}},
			"undefined",
		},
		{
			"undefined array",
			&Program{Vars: []*VarDecl{{Name: "x"}}, Body: []Stmt{Set("x", At("a", N(0)))}},
			"undefined array",
		},
		{
			"constant index out of bounds",
			&Program{
				Vars:   []*VarDecl{{Name: "x"}},
				Arrays: []*ArrayDecl{{Name: "a", Len: 4}},
				Body:   []Stmt{Set("x", At("a", N(4)))},
			},
			"out of bounds",
		},
		{
			"undefined in select",
			&Program{Vars: []*VarDecl{{Name: "x"}},
				Body: []Stmt{Set("x", Sel(V("nope"), N(1), N(2)))}},
			"undefined",
		},
	}
	for _, tc := range cases {
		err := tc.p.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

func TestValidateAcceptsWellFormed(t *testing.T) {
	p := &Program{
		Vars:   []*VarDecl{{Name: "x"}, {Name: "s", Secret: true}},
		Arrays: []*ArrayDecl{{Name: "a", Len: 8, Init: []uint64{1, 2}}},
		Body: []Stmt{
			Set("x", B(Add, V("x"), N(1))),
			Put("a", V("x"), Sel(V("s"), N(1), N(2))),
			SecretIf(V("s"), []Stmt{Set("x", N(1))}, nil),
			PublicIf(V("x"), nil, []Stmt{Set("x", N(0))}),
			Loop(B(Lt, V("x"), N(10)), []Stmt{Set("x", B(Add, V("x"), N(1)))}),
		},
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestExprStrings(t *testing.T) {
	e := B(Add, V("x"), N(1))
	if e.String() != "(x + 1)" {
		t.Errorf("Bin.String = %q", e.String())
	}
	if s := At("a", V("i")).String(); s != "a[i]" {
		t.Errorf("Index.String = %q", s)
	}
	if s := Sel(V("c"), N(1), N(0)).String(); s != "sel(c, 1, 0)" {
		t.Errorf("Select.String = %q", s)
	}
}

func TestTaintThroughArrays(t *testing.T) {
	// A secret stored into an array taints the array; a branch on an
	// element read back must be flagged.
	p := &Program{
		Vars:   []*VarDecl{{Name: "k", Secret: true}, {Name: "x"}},
		Arrays: []*ArrayDecl{{Name: "buf", Len: 4}},
		Body: []Stmt{
			Put("buf", N(0), V("k")),
			PublicIf(At("buf", N(0)), []Stmt{Set("x", N(1))}, nil),
		},
	}
	rep := AnalyzeTaint(p)
	if len(rep.UnmarkedBranches) != 1 {
		t.Errorf("unmarked = %v", rep.UnmarkedBranches)
	}
}

func TestTaintImplicitFlowFromUnmarkedBranch(t *testing.T) {
	// Writes under an unmarked secret branch taint their targets; a later
	// branch on such a target must also be flagged.
	p := &Program{
		Vars: []*VarDecl{{Name: "k", Secret: true}, {Name: "x"}, {Name: "y"}},
		Body: []Stmt{
			PublicIf(V("k"), []Stmt{Set("x", N(1))}, nil), // flagged + taints x
			PublicIf(V("x"), []Stmt{Set("y", N(1))}, nil), // flagged via implicit flow
		},
	}
	rep := AnalyzeTaint(p)
	if len(rep.UnmarkedBranches) != 2 {
		t.Errorf("unmarked = %v, want 2 findings", rep.UnmarkedBranches)
	}
}

func TestTaintMarkedPublicNote(t *testing.T) {
	p := &Program{
		Vars: []*VarDecl{{Name: "pub"}, {Name: "x"}},
		Body: []Stmt{
			SecretIf(V("pub"), []Stmt{Set("x", N(1))}, nil),
		},
	}
	rep := AnalyzeTaint(p)
	if len(rep.MarkedPublic) != 1 {
		t.Errorf("marked-public = %v", rep.MarkedPublic)
	}
	if !rep.Clean() {
		t.Error("marked-public is advisory; the report should still be clean")
	}
}

func TestTaintSecretLoopAndIndex(t *testing.T) {
	p := &Program{
		Vars:   []*VarDecl{{Name: "k", Secret: true}, {Name: "x"}},
		Arrays: []*ArrayDecl{{Name: "t", Len: 8}},
		Body: []Stmt{
			Loop(V("k"), []Stmt{Set("x", N(1))}),
			Set("x", At("t", V("k"))),
		},
	}
	rep := AnalyzeTaint(p)
	if len(rep.SecretLoopConds) != 1 {
		t.Errorf("loop conds = %v", rep.SecretLoopConds)
	}
	if len(rep.SecretIndices) != 1 {
		t.Errorf("indices = %v", rep.SecretIndices)
	}
}

// TestValidateRejectsBadMarkers: a marker needs a name no other marker or
// declaration has, since markers and arrays share the symbol table.
func TestValidateRejectsBadMarkers(t *testing.T) {
	decls := func(body ...Stmt) *Program {
		return &Program{Vars: []*VarDecl{{Name: "x"}}, Arrays: []*ArrayDecl{{Name: "a", Len: 2}}, Body: body}
	}
	for _, tc := range []struct {
		name string
		p    *Program
		want string
	}{
		{"unnamed", decls(Mark("")), "without a name"},
		{"duplicate", decls(Mark("m"), Loop(V("x"), []Stmt{Mark("m")})), "duplicate marker"},
		{"names a variable", decls(Mark("x")), "collides"},
		{"names an array", decls(PublicIf(V("x"), []Stmt{Mark("a")}, nil)), "collides"},
	} {
		if err := tc.p.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
	if err := decls(Mark("m1"), SecretIf(V("x"), []Stmt{Mark("m2")}, nil)).Validate(); err != nil {
		t.Errorf("distinct markers rejected: %v", err)
	}
}
