package compile

import (
	"errors"
	"testing"

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
