package leak

import (
	"testing"

	"repro/internal/compile"
	"repro/internal/isa"
	"repro/internal/jpegsim"
	"repro/internal/pipeline"
	"repro/internal/workloads"
)

// buildHarness returns a builder closure producing the microbenchmark
// binary for a given secret, in the requested compilation mode.
func buildHarness(kind workloads.Kind, w int, mode compile.Mode) func(uint64) (*isa.Program, error) {
	return func(secret uint64) (*isa.Program, error) {
		spec := workloads.HarnessSpec{Kind: kind, W: w, I: 2, Secret: secret}
		p := workloads.Harness(spec)
		out, err := compile.Compile(p, mode)
		if err != nil {
			return nil, err
		}
		return out.Prog, nil
	}
}

// TestBaselineLeaksEveryWorkload: the unprotected binary must be
// distinguishable — the side channel the paper sets out to close exists.
func TestBaselineLeaksEveryWorkload(t *testing.T) {
	for _, kind := range workloads.All() {
		rep, err := Distinguish(pipeline.DefaultConfig(),
			buildHarness(kind, 2, compile.Plain), 0, 3)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if !rep.Leaks() {
			t.Errorf("%v: baseline does not leak; the experiment is vacuous", kind)
		}
		// The committed-PC channel (SDBCB itself) must be among them.
		found := false
		for _, ch := range rep.Leaking {
			if ch == ChannelPCTrace {
				found = true
			}
		}
		if !found {
			t.Errorf("%v: baseline leak misses the pc-trace channel: %v", kind, rep.Leaking)
		}
	}
}

// TestSeMPEClosesEveryChannel: under SeMPE every observable the threat
// model grants the attacker is identical for different secrets.
func TestSeMPEClosesEveryChannel(t *testing.T) {
	for _, kind := range workloads.All() {
		rep, err := Distinguish(pipeline.SecureConfig(),
			buildHarness(kind, 2, compile.SeMPE), 0, 3)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if rep.Leaks() {
			t.Errorf("%v under SeMPE: %v", kind, rep)
		}
	}
}

// TestSeMPEDeepNestingNoLeak exercises the full W=10 nesting depth with
// several secret pairs.
func TestSeMPEDeepNestingNoLeak(t *testing.T) {
	pairs := [][2]uint64{{0, 1023}, {1, 512}, {0b1010101010, 0b0101010101}}
	for _, p := range pairs {
		rep, err := Distinguish(pipeline.SecureConfig(),
			buildHarness(workloads.Fibonacci, 10, compile.SeMPE), p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		if rep.Leaks() {
			t.Errorf("secrets %d vs %d: %v", p[0], p[1], rep)
		}
	}
}

// TestCTAlsoConstantTime: the hand-written constant-time variant must be
// indistinguishable on the plain baseline core — that is the guarantee CTE
// buys at its much higher cost.
func TestCTAlsoConstantTime(t *testing.T) {
	build := func(secret uint64) (*isa.Program, error) {
		spec := workloads.HarnessSpec{Kind: workloads.Fibonacci, W: 3, I: 2, Secret: secret}
		out, err := compile.Compile(workloads.HarnessCT(spec), compile.Plain)
		if err != nil {
			return nil, err
		}
		return out.Prog, nil
	}
	rep, err := Distinguish(pipeline.DefaultConfig(), build, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Leaks() {
		t.Errorf("constant-time variant leaks: %v", rep)
	}
}

// TestDjpegImageContentLeak reproduces the paper's libjpeg story: on the
// baseline, two images of the same size but different content are
// distinguishable (busy blocks decode slower); under SeMPE they are not.
func TestDjpegImageContentLeak(t *testing.T) {
	build := func(mode compile.Mode) func(uint64) (*isa.Program, error) {
		return func(seed uint64) (*isa.Program, error) {
			spec := jpegsim.ImageSpec{Format: jpegsim.PPM, Blocks: 8, Sparsity: 50, Seed: seed}
			out, err := compile.Compile(jpegsim.BuildProgram(spec), mode)
			if err != nil {
				return nil, err
			}
			return out.Prog, nil
		}
	}
	base, err := Distinguish(pipeline.DefaultConfig(), build(compile.Plain), 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !base.Leaks() {
		t.Error("baseline djpeg does not leak image content")
	}
	sec, err := Distinguish(pipeline.SecureConfig(), build(compile.SeMPE), 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sec.Leaks() {
		t.Errorf("SeMPE djpeg leaks: %v", sec)
	}
}

// TestSeMPEBinaryOnLegacyCoreStillLeaks: backward compatibility means the
// instrumented binary runs on an old core — but without protection. The
// leak checker must show the channel reopens.
func TestSeMPEBinaryOnLegacyCoreStillLeaks(t *testing.T) {
	rep, err := Distinguish(pipeline.DefaultConfig(),
		buildHarness(workloads.Fibonacci, 2, compile.SeMPE), 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Leaks() {
		t.Error("SeMPE binary on a legacy core shows no leak; expected the channel to reopen")
	}
}

func TestCompareReportsChannels(t *testing.T) {
	a := Observation{Cycles: 100, CommitDigest: 1, MemDigest: 2, BPDigest: 3}
	b := a
	if rep := Compare(a, b); rep.Leaks() {
		t.Errorf("identical observations compare unequal: %v", rep)
	}
	b.Cycles = 101
	b.BPDigest = 4
	rep := Compare(a, b)
	if len(rep.Leaking) != 2 {
		t.Errorf("want 2 leaking channels, got %v", rep.Leaking)
	}
	if rep.String() == "" {
		t.Error("empty report string")
	}
}
