package compile

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/isa"
	"repro/internal/lang"
)

// TestNewTemplateRejectsUnprovableSlots: a template NewTemplate cannot prove
// patchable is an ErrNotPatchable error when it is built, never a template
// that later patches the wrong bytes.
func TestNewTemplateRejectsUnprovableSlots(t *testing.T) {
	cases := []struct {
		name string
		body []lang.Stmt
	}{
		// A named slot named like a scalar: one patch value would serve two
		// different program points.
		{"slot-shadows-scalar", []lang.Stmt{lang.Set("y", lang.NS("x", 3))}},
		// Two sites of one slot built with different literals: no single
		// value reproduces both.
		{"sites-disagree", []lang.Stmt{
			lang.Set("y", lang.NS("k", 3)),
			lang.Set("x", lang.NS("k", 4)),
		}},
	}
	for _, tc := range cases {
		p := &lang.Program{
			Vars: []*lang.VarDecl{{Name: "x", Init: 1}, {Name: "y"}},
			Body: tc.body,
		}
		if _, err := Compile(p, Plain); err != nil {
			t.Fatalf("%s: the program itself must compile: %v", tc.name, err)
		}
		if _, err := NewTemplate(p, Plain); !errors.Is(err, ErrNotPatchable) {
			t.Errorf("%s: NewTemplate err = %v, want ErrNotPatchable", tc.name, err)
		}
	}
}

// TestSpecializeRejectsUnpatchableValues: a value count that does not match
// the slots, or a value past the 32-bit immediate, is ErrNotPatchable.
func TestSpecializeRejectsUnpatchableValues(t *testing.T) {
	p := &lang.Program{
		Vars: []*lang.VarDecl{{Name: "x", Init: 1}, {Name: "y"}},
		Body: []lang.Stmt{lang.Set("y", lang.B(lang.Add, lang.V("x"), lang.NS("k", 3)))},
	}
	tmpl, err := NewTemplate(p, Plain)
	if err != nil {
		t.Fatal(err)
	}
	if tmpl.NumSlots() != 3 {
		t.Fatalf("NumSlots = %d, want 3 (x, y, k)", tmpl.NumSlots())
	}
	if _, err := tmpl.Specialize([]int64{1, 2}, nil); !errors.Is(err, ErrNotPatchable) {
		t.Errorf("short value list: err = %v, want ErrNotPatchable", err)
	}
	if _, err := tmpl.Specialize([]int64{1, 0, 1 << 40}, nil); !errors.Is(err, ErrNotPatchable) {
		t.Errorf("40-bit value: err = %v, want ErrNotPatchable", err)
	}
	code, err := tmpl.Specialize(tmpl.BaseInits(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(code) != string(tmpl.Out.Prog.Code) {
		t.Error("patching the base values changed the code")
	}
}

// TestSlottedLiteralFusesImmediate: a slotted right-hand literal of every
// operator with an immediate form compiles to exactly the plain literal's
// bytes, records the fused instruction as the slot's only site, and patches
// there like a load-immediate. A slot whose fused form would carry a value
// other than the literal — a Sub operand (negated) or a literal array index
// (folded into a constant address) — still lowers to an OpLi carrying the
// literal itself.
func TestSlottedLiteralFusesImmediate(t *testing.T) {
	prog := func(s lang.Stmt) *lang.Program {
		return &lang.Program{
			Vars:   []*lang.VarDecl{{Name: "x", Init: 9}, {Name: "y"}},
			Arrays: []*lang.ArrayDecl{{Name: "a", Len: 8}},
			Body:   []lang.Stmt{s},
		}
	}
	// checkSite compiles the slotted program, requires one site of slot k
	// decoding as op with immediate 3, and requires the template patched to
	// 5 to equal the slotted program compiled at 5.
	checkSite := func(name string, mode Mode, build func(lit lang.Expr) lang.Stmt, op isa.Op) *Output {
		t.Helper()
		out, err := Compile(prog(build(lang.NS("k", 3))), mode)
		if err != nil {
			t.Fatalf("%s/%v: %v", name, mode, err)
		}
		sites := out.ImmSlots["k"]
		if len(sites) != 1 {
			t.Fatalf("%s/%v: slot k has %d sites, want 1", name, mode, len(sites))
		}
		if in, _, err := isa.Decode(out.Prog.Code, sites[0]); err != nil || in.Op != op || in.Imm != 3 {
			t.Errorf("%s/%v: slot site decodes as %v (err %v), want %v with immediate 3", name, mode, in, err, op)
		}
		tmpl, err := NewTemplate(prog(build(lang.NS("k", 3))), mode)
		if err != nil {
			t.Fatalf("%s/%v: %v", name, mode, err)
		}
		vals := append([]int64(nil), tmpl.BaseInits()...)
		i, ok := tmpl.SlotIndex("k")
		if !ok {
			t.Fatalf("%s/%v: template has no slot k", name, mode)
		}
		vals[i] = 5
		code, err := tmpl.Specialize(vals, nil)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := Compile(prog(build(lang.NS("k", 5))), mode)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(code, fresh.Prog.Code) {
			t.Errorf("%s/%v: template patched to 5 != fresh compile at 5", name, mode)
		}
		return out
	}
	for _, mode := range []Mode{Plain, SeMPE, CTE} {
		for _, op := range []lang.BinOp{lang.Add, lang.Mul, lang.And, lang.Or, lang.Xor, lang.Shl, lang.Shr, lang.Lt, lang.Eq} {
			fused, ok := immOp(op)
			if !ok {
				t.Fatalf("operator %d has no immediate form", op)
			}
			build := func(lit lang.Expr) lang.Stmt { return lang.Set("y", lang.B(op, lang.V("x"), lit)) }
			name := fmt.Sprintf("op%d", op)
			out := checkSite(name, mode, build, fused)
			plain, err := Compile(prog(build(lang.N(3))), mode)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Prog.Code, plain.Prog.Code) {
				t.Errorf("%s/%v: slotted literal changed the code", name, mode)
			}
		}
		for name, build := range map[string]func(lang.Expr) lang.Stmt{
			"sub":         func(lit lang.Expr) lang.Stmt { return lang.Set("y", lang.B(lang.Sub, lang.V("x"), lit)) },
			"index-load":  func(lit lang.Expr) lang.Stmt { return lang.Set("y", lang.At("a", lit)) },
			"index-store": func(lit lang.Expr) lang.Stmt { return lang.Put("a", lit, lang.V("x")) },
		} {
			checkSite(name, mode, build, isa.OpLi)
		}
	}
}
