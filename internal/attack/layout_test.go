package attack

import (
	"fmt"
	"hash/fnv"
	"maps"
	"slices"
	"strings"
	"testing"

	"repro/internal/compile"
	"repro/internal/jpegsim"
	"repro/internal/lang"
	"repro/internal/victim"
	"repro/internal/workloads"
)

// dataLayout is the address layout of one compiled program: its result
// block, its arrays (shadow copies included), and the size and FNV-64a
// digest of its whole symbol table (data blocks and code labels).
type dataLayout struct {
	result  uint64
	arrays  map[string]uint64
	nsyms   int
	symsFNV uint64
}

func layoutOf(out *compile.Output) dataLayout {
	l := dataLayout{
		result: out.ResultBase,
		arrays: out.ArrayAddrs,
		nsyms:  len(out.Prog.Symbols),
	}
	h := fnv.New64a()
	for _, name := range slices.Sorted(maps.Keys(out.Prog.Symbols)) {
		fmt.Fprintf(h, "%s=%#x\n", name, out.Prog.Symbols[name])
	}
	l.symsFNV = h.Sum64()
	return l
}

// goMap renders m as a Go map literal with sorted keys.
func goMap(m map[string]uint64) string {
	var b strings.Builder
	b.WriteString("map[string]uint64{")
	for i, k := range slices.Sorted(maps.Keys(m)) {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%q: %#x", k, m[k])
	}
	b.WriteString("}")
	return b.String()
}

func (l dataLayout) String() string {
	return fmt.Sprintf("{result: %#x, arrays: %s, nsyms: %d, symsFNV: %#x}",
		l.result, goMap(l.arrays), l.nsyms, l.symsFNV)
}

// wantLayouts pins the address layout of a Fig. 10 harness, a djpeg program
// and both attack programs, recorded before zero-filled data became a
// reservation. Reserving instead of storing zeros must not move a single
// symbol.
var wantLayouts = map[string]dataLayout{
	"fig10/quicksort/plain": {
		result: 0x100540,
		arrays: map[string]uint64{"qdata": 0x100000, "qstk": 0x100100},
		nsyms:  65, symsFNV: 0x456d4db533ccbed8,
	},
	"fig10/quicksort/sempe": {
		result: 0x100540,
		arrays: map[string]uint64{
			"qdata":        0x100000,
			"qdata__shNT0": 0x1007c0,
			"qdata__shNT2": 0x101240,
			"qdata__shNT4": 0x101cc0,
			"qdata__shT0":  0x1006c0,
			"qdata__shT2":  0x101140,
			"qdata__shT4":  0x101bc0,
			"qstk":         0x100100,
			"qstk__shNT1":  0x100d00,
			"qstk__shNT3":  0x101780,
			"qstk__shNT5":  0x102200,
			"qstk__shT1":   0x1008c0,
			"qstk__shT3":   0x101340,
			"qstk__shT5":   0x101dc0,
		},
		nsyms: 89, symsFNV: 0xafb26afa8827fd5e,
	},
	"fig10/quicksort/cte": {
		result: 0x100540,
		arrays: map[string]uint64{"qdata": 0x100000, "qstk": 0x100100},
		nsyms:  37, symsFNV: 0x5d30aaffffc8e87f,
	},
	"djpeg/ppm/plain": {
		result: 0x100a00,
		arrays: map[string]uint64{"coeffs": 0x100000, "quant": 0x100800},
		nsyms:  15, symsFNV: 0xed2b2441cf465,
	},
	"djpeg/ppm/sempe": {
		result: 0x100a00,
		arrays: map[string]uint64{"coeffs": 0x100000, "quant": 0x100800},
		nsyms:  15, symsFNV: 0x7bdb615a806655b2,
	},
	"primeprobe/plain": {
		result: 0x10c040,
		arrays: map[string]uint64{"mrk": 0x100000, "parr": 0x100040},
		nsyms:  15, symsFNV: 0x8db2d48f1d0e7e70,
	},
	"primeprobe/sempe": {
		result: 0x10c040,
		arrays: map[string]uint64{"mrk": 0x100000, "parr": 0x100040},
		nsyms:  15, symsFNV: 0xb44619a79af6af2f,
	},
	"bp/plain": {
		result: 0x100080,
		arrays: map[string]uint64{"gna": 0x100040, "mrk": 0x100000},
		nsyms:  19, symsFNV: 0xc9148ea65d60df61,
	},
	"bp/sempe": {
		result: 0x100080,
		arrays: map[string]uint64{"gna": 0x100040, "mrk": 0x100000},
		nsyms:  19, symsFNV: 0x55a4f8992adf65d3,
	},
}

// TestCompiledDataLayout compiles each program of wantLayouts and requires
// its layout to match the recorded one exactly.
func TestCompiledDataLayout(t *testing.T) {
	hs := workloads.HarnessSpec{Kind: workloads.Quicksort, W: 4, I: 2, Secret: 0b1010}
	img := jpegsim.ImageSpec{Format: jpegsim.PPM, Blocks: 4, Sparsity: 50, Seed: 3}
	v, err := victim.Lookup("keyloop")
	if err != nil {
		t.Fatal(err)
	}
	frag := v.Fragment(0b1010, 4, 2)
	d := draw{seed0: 7, noisePre: 5, noiseWin: 2, la: 16, lb: 40}
	programs := []struct {
		name string
		prog *lang.Program
		mode compile.Mode
	}{
		{"fig10/quicksort/plain", workloads.Harness(hs), compile.Plain},
		{"fig10/quicksort/sempe", workloads.Harness(hs), compile.SeMPE},
		{"fig10/quicksort/cte", workloads.HarnessCT(hs), compile.Plain},
		{"djpeg/ppm/plain", jpegsim.BuildProgram(img), compile.Plain},
		{"djpeg/ppm/sempe", jpegsim.BuildProgram(img), compile.SeMPE},
		{"primeprobe/plain", cacheProgram(frag, d, 11, 6), compile.Plain},
		{"primeprobe/sempe", cacheProgram(frag, d, 11, 6), compile.SeMPE},
		{"bp/plain", bpProgram(frag, d, 11, 6), compile.Plain},
		{"bp/sempe", bpProgram(frag, d, 11, 6), compile.SeMPE},
	}
	for _, pr := range programs {
		out, err := compile.Compile(pr.prog, pr.mode)
		if err != nil {
			t.Fatalf("%s: %v", pr.name, err)
		}
		got, want := layoutOf(out), wantLayouts[pr.name]
		if got.String() != want.String() {
			t.Errorf("%s: layout moved\n got  %q: %v,\n want %q: %v,", pr.name, pr.name, got, pr.name, want)
		}
	}
}
