package jpegsim

import (
	"testing"

	"repro/internal/compile"
	"repro/internal/emu"
	"repro/internal/lang"
	"repro/internal/mem"
)

func runDecoder(t *testing.T, spec ImageSpec, mode compile.Mode, secure bool) uint64 {
	t.Helper()
	out, err := compile.Compile(BuildProgram(spec), mode)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	m := emu.Legacy
	if secure {
		m = emu.SeMPE
	}
	mach := emu.New(m, out.Prog, mem.DefaultSPMConfig().Slots)
	mach.MaxInsts = 100_000_000
	if err := mach.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	addr, err := out.ResultAddr("cksum")
	if err != nil {
		t.Fatal(err)
	}
	return mach.Mem.Read64(addr)
}

func TestDecoderMatchesReference(t *testing.T) {
	for _, f := range Formats() {
		spec := ImageSpec{Format: f, Blocks: 4, Sparsity: 30, Seed: 7}
		want := ReferenceChecksum(spec)
		if got := runDecoder(t, spec, compile.Plain, false); got != want {
			t.Errorf("%v plain cksum = %d, want %d", f, got, want)
		}
		if got := runDecoder(t, spec, compile.SeMPE, true); got != want {
			t.Errorf("%v SeMPE cksum = %d, want %d", f, got, want)
		}
		// Backward compatibility: SeMPE binary on a legacy machine.
		out, err := compile.Compile(BuildProgram(spec), compile.SeMPE)
		if err != nil {
			t.Fatal(err)
		}
		mach := emu.New(emu.Legacy, out.Prog, mem.DefaultSPMConfig().Slots)
		if err := mach.Run(); err != nil {
			t.Fatal(err)
		}
		addr, _ := out.ResultAddr("cksum")
		if got := mach.Mem.Read64(addr); got != want {
			t.Errorf("%v SeMPE-on-legacy cksum = %d, want %d", f, got, want)
		}
	}
}

func TestCoefficientsDeterministicAndSparse(t *testing.T) {
	spec := ImageSpec{Format: PPM, Blocks: 64, Sparsity: 25, Seed: 3}
	a := Coefficients(spec)
	b := Coefficients(spec)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("coefficients not deterministic at %d", i)
		}
	}
	busy := 0
	for blk := 0; blk < spec.Blocks; blk++ {
		if a[blk*CoeffsPerBlock] != 0 {
			busy++
		}
	}
	frac := float64(busy) / float64(spec.Blocks)
	if frac < 0.12 || frac > 0.40 {
		t.Errorf("busy-block fraction %.2f, want ~0.25", frac)
	}
	// Different seeds must give different images.
	c := Coefficients(ImageSpec{Format: PPM, Blocks: 64, Sparsity: 25, Seed: 4})
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical images")
	}
}

func TestDecoderTaintClean(t *testing.T) {
	for _, f := range Formats() {
		spec := ImageSpec{Format: f, Blocks: 2, Sparsity: 50, Seed: 1}
		if rep := lang.AnalyzeTaint(BuildProgram(spec)); !rep.Clean() {
			t.Errorf("%v decoder tainted: %+v", f, rep)
		}
	}
}

func TestSecretBranchPerCoefficient(t *testing.T) {
	spec := ImageSpec{Format: GIF, Blocks: 3, Sparsity: 50, Seed: 1}
	out, err := compile.Compile(BuildProgram(spec), compile.SeMPE)
	if err != nil {
		t.Fatal(err)
	}
	sjmp, eos := out.Prog.CountSecure()
	if sjmp != 1 || eos != 1 {
		t.Errorf("static secure counts sjmp=%d eos=%d, want 1,1", sjmp, eos)
	}
	// Dynamically the branch runs once per block decoding step.
	mach := emu.New(emu.SeMPE, out.Prog, mem.DefaultSPMConfig().Slots)
	if err := mach.Run(); err != nil {
		t.Fatal(err)
	}
	want := uint64(spec.Blocks)
	if mach.SJmps != want {
		t.Errorf("dynamic sJMPs = %d, want %d", mach.SJmps, want)
	}
	if mach.EOSJmps != 2*want {
		t.Errorf("dynamic eosJMPs = %d, want %d", mach.EOSJmps, 2*want)
	}
}
