package workloads

import (
	"testing"

	"repro/internal/compile"
	"repro/internal/emu"
	"repro/internal/lang"
	"repro/internal/mem"
)

// runCksum compiles and runs a program, returning the final cksum value.
func runCksum(t *testing.T, p *lang.Program, mode compile.Mode, secure bool) uint64 {
	t.Helper()
	out, err := compile.Compile(p, mode)
	if err != nil {
		t.Fatalf("compile %s (%v): %v", p.Name, mode, err)
	}
	m := emu.Legacy
	if secure {
		m = emu.SeMPE
	}
	mach := emu.New(m, out.Prog, mem.DefaultSPMConfig().Slots)
	mach.MaxInsts = 200_000_000
	if err := mach.Run(); err != nil {
		t.Fatalf("run %s (%v): %v", p.Name, mode, err)
	}
	addr, err := out.ResultAddr("cksum")
	if err != nil {
		t.Fatal(err)
	}
	return mach.Mem.Read64(addr)
}

// once builds a harness that runs one kernel instance of size n once: W=1
// gives two instances behind one secret branch, and I=1 runs one of them.
func once(k Kind, n int) *lang.Program {
	return Harness(HarnessSpec{Kind: k, Size: n, W: 1, I: 1})
}

func TestKernelsProduceKnownResults(t *testing.T) {
	// Fibonacci: fib(64) with fib(0)=1 starting pair (a=0,b=1 -> b holds
	// fib(n+1) after n steps).
	fib := func(n int) uint64 {
		a, b := uint64(0), uint64(1)
		for i := 0; i < n; i++ {
			a, b = b, a+b
		}
		return b
	}
	got := runCksum(t, once(Fibonacci, 64), compile.Plain, false)
	if got != fib(64) {
		t.Errorf("fibonacci cksum = %d, want %d", got, fib(64))
	}

	// Queens: 4x4 board has 2 solutions; 5x5 has 10; run once each.
	if got := runCksum(t, once(Queens, 4), compile.Plain, false); got != 2 {
		t.Errorf("queens(4) solutions = %d, want 2", got)
	}
	if got := runCksum(t, once(Queens, 5), compile.Plain, false); got != 10 {
		t.Errorf("queens(5) solutions = %d, want 10", got)
	}

	// Quicksort: cksum = data[n/2]+data[0] of the sorted array; compute the
	// expected value with a reference model of the same LCG.
	n := 32
	vals := make([]uint64, n)
	v := uint64(12345) // iter = 0
	for i := 0; i < n; i++ {
		v = (v*25173 + 13849) & 0xFFFFFF
		vals[i] = v & 0xFFFF
	}
	// insertion sort reference
	for i := 1; i < n; i++ {
		for j := i; j > 0 && vals[j] < vals[j-1]; j-- {
			vals[j], vals[j-1] = vals[j-1], vals[j]
		}
	}
	want := vals[n/2] + vals[0]
	if got := runCksum(t, once(Quicksort, n), compile.Plain, false); got != want {
		t.Errorf("quicksort cksum = %d, want %d", got, want)
	}

	// Ones: popcount-of-low-bit over the LCG fill.
	cnt := uint64(0)
	v = 12345
	for i := 0; i < 48; i++ {
		v = (v*25173 + 13849) & 0xFFFFFF
		cnt += v & 1
	}
	if got := runCksum(t, once(Ones, 48), compile.Plain, false); got != cnt {
		t.Errorf("ones cksum = %d, want %d", got, cnt)
	}
}

// TestHarnessAllVariantsAgree is the central semantic check: for every
// kernel and several secrets, the baseline binary, the SeMPE binary on the
// secure machine, the SeMPE binary on a legacy machine, and the hand-written
// constant-time program all compute the same checksum.
func TestHarnessAllVariantsAgree(t *testing.T) {
	for _, kind := range All() {
		for _, secret := range []uint64{0, 1, 2, 5} {
			spec := HarnessSpec{Kind: kind, W: 3, I: 2, Secret: secret}
			p := Harness(spec)
			base := runCksum(t, p, compile.Plain, false)
			sempe := runCksum(t, p, compile.SeMPE, true)
			legacy := runCksum(t, p, compile.SeMPE, false)
			ct := runCksum(t, HarnessCT(spec), compile.Plain, false)
			if sempe != base {
				t.Errorf("%s secret=%d: SeMPE cksum %d != baseline %d", spec, secret, sempe, base)
			}
			if legacy != base {
				t.Errorf("%s secret=%d: SeMPE-on-legacy cksum %d != baseline %d", spec, secret, legacy, base)
			}
			if ct != base {
				t.Errorf("%s secret=%d: CT cksum %d != baseline %d", spec, secret, ct, base)
			}
		}
	}
}

func TestHarnessDeepNesting(t *testing.T) {
	// W=10 is the paper's deepest configuration.
	spec := HarnessSpec{Kind: Fibonacci, W: 10, I: 1, Secret: 0b1000010001}
	p := Harness(spec)
	base := runCksum(t, p, compile.Plain, false)
	sempe := runCksum(t, p, compile.SeMPE, true)
	ct := runCksum(t, HarnessCT(spec), compile.Plain, false)
	if sempe != base || ct != base {
		t.Errorf("W=10: base=%d sempe=%d ct=%d", base, sempe, ct)
	}
}

func TestHarnessTaintClean(t *testing.T) {
	// Every harness must pass the taint linter: secrets reach only marked
	// branches and never memory indices.
	for _, kind := range All() {
		spec := HarnessSpec{Kind: kind, W: 2, I: 1, Secret: 1}
		if rep := lang.AnalyzeTaint(Harness(spec)); !rep.Clean() {
			t.Errorf("%v structured harness tainted: %+v", kind, rep)
		}
		if rep := lang.AnalyzeTaint(HarnessCT(spec)); !rep.Clean() {
			t.Errorf("%v CT harness tainted: %+v", kind, rep)
		}
	}
}

func TestSecureInstructionCounts(t *testing.T) {
	// The structured harness must contain exactly W static sJMPs and W
	// eosJMPs when compiled for SeMPE.
	for w := 1; w <= 5; w++ {
		out := compile.MustCompile(Harness(HarnessSpec{Kind: Fibonacci, W: w, I: 1}), compile.SeMPE)
		sjmp, eos := out.Prog.CountSecure()
		if sjmp != w || eos != w {
			t.Errorf("W=%d: sjmp=%d eos=%d", w, sjmp, eos)
		}
	}
}

func TestDynamicInstructionScaling(t *testing.T) {
	// Under SeMPE every kernel instance executes: the dynamic instruction
	// count must grow roughly linearly with W+1 relative to the baseline.
	countInsts := func(p *lang.Program, mode compile.Mode, secure bool) uint64 {
		out := compile.MustCompile(p, mode)
		m := emu.Legacy
		if secure {
			m = emu.SeMPE
		}
		mach := emu.New(m, out.Prog, mem.DefaultSPMConfig().Slots)
		if err := mach.Run(); err != nil {
			t.Fatal(err)
		}
		return mach.Insts
	}
	spec1 := HarnessSpec{Kind: Fibonacci, W: 1, I: 4, Secret: 0}
	spec7 := HarnessSpec{Kind: Fibonacci, W: 7, I: 4, Secret: 0}
	base1 := countInsts(Harness(spec1), compile.Plain, false)
	sec1 := countInsts(Harness(spec1), compile.SeMPE, true)
	base7 := countInsts(Harness(spec7), compile.Plain, false)
	sec7 := countInsts(Harness(spec7), compile.SeMPE, true)

	r1 := float64(sec1) / float64(base1)
	r7 := float64(sec7) / float64(base7)
	if r1 < 1.5 || r1 > 3.0 {
		t.Errorf("W=1 instruction ratio %.2f, want ~2", r1)
	}
	if r7 < 5.5 || r7 > 10.0 {
		t.Errorf("W=7 instruction ratio %.2f, want ~8", r7)
	}
}
