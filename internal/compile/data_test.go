package compile

import (
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/asm"
	"repro/internal/emu"
	"repro/internal/lang"
	"repro/internal/mem"
	"repro/internal/pipeline"
)

// TestArrayInitStopsAtLastNonZero: an array's segment carries its Init only
// up to the last non-zero word, all-zero and uninitialized arrays carry
// none, and every array still reserves its full length.
func TestArrayInitStopsAtLastNonZero(t *testing.T) {
	p := &lang.Program{
		Name: "trim",
		Vars: []*lang.VarDecl{{Name: "sum", Init: 0}, {Name: "i", Init: 0}},
		Arrays: []*lang.ArrayDecl{
			{Name: "a", Len: 12, Init: []uint64{1, 2, 0, 3, 0, 0}},
			{Name: "z", Len: 4, Init: []uint64{0, 0}},
			{Name: "u", Len: 3},
		},
		Body: []lang.Stmt{
			lang.Loop(lang.B(lang.Lt, lang.V("i"), lang.N(12)), []lang.Stmt{
				lang.Set("sum", lang.B(lang.Add, lang.V("sum"), lang.At("a", lang.V("i")))),
				lang.Set("i", lang.B(lang.Add, lang.V("i"), lang.N(1))),
			}),
			lang.Set("sum", lang.B(lang.Add, lang.V("sum"), lang.At("z", lang.N(1)))),
			lang.Set("sum", lang.B(lang.Add, lang.V("sum"), lang.At("u", lang.N(2)))),
		},
	}
	out := MustCompile(p, Plain)
	if len(out.Prog.Data) != 1 {
		t.Fatalf("%d segments, want 1 (array a)", len(out.Prog.Data))
	}
	seg := out.Prog.Data[0]
	if seg.Base != out.ArrayAddrs["a"] || len(seg.Bytes) != 8*4 {
		t.Fatalf("segment at %#x, %d bytes; want %#x, 32 bytes", seg.Base, len(seg.Bytes), out.ArrayAddrs["a"])
	}
	for i, want := range []uint64{1, 2, 0, 3} {
		if got := binary.LittleEndian.Uint64(seg.Bytes[8*i:]); got != want {
			t.Errorf("a[%d] = %d in the image, want %d", i, got, want)
		}
	}
	// a spans 12 words (96 bytes, 128 aligned) even though 4 are stored.
	if z, a := out.ArrayAddrs["z"], out.ArrayAddrs["a"]; z != a+128 {
		t.Errorf("z at %#x, want a+128 = %#x", z, a+128)
	}
	if got := runOutput(t, out, false)["sum"]; got != 6 {
		t.Errorf("sum = %d, want 6", got)
	}
}

// TestHugeArrayRejected: an array too large for the data region is a named
// error from Compile, not an allocation of its zeros.
func TestHugeArrayRejected(t *testing.T) {
	for _, n := range []int{1 << 21, 1 << 61} {
		p := &lang.Program{
			Name:   "huge",
			Vars:   []*lang.VarDecl{{Name: "x", Init: 0}},
			Arrays: []*lang.ArrayDecl{{Name: "big", Len: n, LiveOut: true}},
			Body: []lang.Stmt{
				lang.SecretIf(lang.V("x"), []lang.Stmt{lang.Put("big", lang.N(0), lang.N(1))}, nil),
			},
		}
		for _, mode := range []Mode{Plain, SeMPE} {
			if _, err := Compile(p, mode); !errors.Is(err, asm.ErrDataRegion) {
				t.Errorf("Len %d, %v: error %v, want asm.ErrDataRegion", n, mode, err)
			}
		}
	}
}

// TestZeroArrayReadBeforeWrite: a program that reads an all-zero array
// before writing it — memory the image never backs — gets the same results
// and final memory on the functional machine and the cycle-level core, in
// every backend. The SeMPE build privatizes the array through shadow copies,
// which are reservations too.
func TestZeroArrayReadBeforeWrite(t *testing.T) {
	for _, secret := range []int64{0, 1} {
		p := &lang.Program{
			Name: "zeroread",
			Vars: []*lang.VarDecl{
				{Name: "s", Init: secret, Secret: true},
				{Name: "acc", Init: 0},
				{Name: "i", Init: 0},
			},
			Arrays: []*lang.ArrayDecl{{Name: "z", Len: 64, LiveOut: true}},
			Body: []lang.Stmt{
				lang.Loop(lang.B(lang.Lt, lang.V("i"), lang.N(64)), []lang.Stmt{
					lang.Set("acc", lang.B(lang.Add, lang.V("acc"), lang.At("z", lang.V("i")))),
					lang.Put("z", lang.V("i"), lang.B(lang.Add, lang.V("acc"), lang.V("i"))),
					lang.Set("i", lang.B(lang.Add, lang.V("i"), lang.N(1))),
				}),
				lang.SecretIf(lang.V("s"),
					[]lang.Stmt{lang.Put("z", lang.N(3), lang.B(lang.Add, lang.At("z", lang.N(3)), lang.N(100)))},
					[]lang.Stmt{lang.Put("z", lang.N(5), lang.B(lang.Add, lang.At("z", lang.N(5)), lang.N(200)))},
				),
				lang.Set("acc", lang.B(lang.Add, lang.At("z", lang.N(3)), lang.At("z", lang.N(5)))),
			},
		}
		want := uint64(3 + 5 + 200)
		if secret != 0 {
			want = 3 + 100 + 5
		}
		for _, mode := range []Mode{Plain, SeMPE, CTE} {
			out := MustCompile(p, mode)
			if len(out.Prog.Data) != 0 {
				t.Errorf("%v: %d data segments, want none", mode, len(out.Prog.Data))
			}
			emuMode, cfg := emu.Legacy, pipeline.DefaultConfig()
			if mode == SeMPE {
				emuMode, cfg = emu.SeMPE, pipeline.SecureConfig()
			}
			ref := emu.New(emuMode, out.Prog, mem.DefaultSPMConfig().Slots)
			if err := ref.Run(); err != nil {
				t.Fatal(err)
			}
			core := pipeline.New(cfg, out.Prog)
			if err := core.Run(); err != nil {
				t.Fatal(err)
			}
			if addr, diff := core.Mem().FirstDiff(ref.Mem); diff {
				t.Errorf("%v secret=%d: memory differs at %#x: core=%#x emu=%#x",
					mode, secret, addr, core.Mem().Read64(addr), ref.Mem.Read64(addr))
			}
			addr, err := out.ResultAddr("acc")
			if err != nil {
				t.Fatal(err)
			}
			if got := core.Mem().Read64(addr); got != want {
				t.Errorf("%v secret=%d: acc = %d, want %d", mode, secret, got, want)
			}
		}
	}
}
