package attack

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/compile"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/victim"
)

// bitFrag is the direct one-bit victim's fragment — the mechanism tests
// probe the attacker scaffolds with the PR-4 victim.
func bitFrag(t *testing.T, secret uint64) victim.Fragment {
	t.Helper()
	v, err := victim.Lookup("bit")
	if err != nil {
		t.Fatal(err)
	}
	return v.Fragment(secret&1, 1, 0)
}

// isCondBranch reports whether the instruction at pc in prog is a
// conditional branch: the spec watch's SpecBPUpdate events cover JALR
// target updates too, and the mechanism tests want only direction updates.
func isCondBranch(prog *isa.Program, pc uint64) bool {
	inst, _, err := isa.Decode(prog.Code, int(pc-prog.CodeBase))
	return err == nil && inst.Op.IsBranch()
}

// TestBPProbeMechanism pins the microarchitectural story behind the bp
// attacker using the core's observability hooks directly: the probed
// branch (the one static conditional that commits exactly twice — victim
// then probe) mispredicts on its probe execution exactly when the secret
// is 1, and the TAGE bimodal counter it leaves behind reflects the
// victim's direction.
func TestBPProbeMechanism(t *testing.T) {
	p := DefaultParams(BPProbe, false)
	for trial := 0; trial < 4; trial++ {
		rng := trialRNG(p.Seed, trial)
		d := newDraw(rng, p)
		for _, secret := range []uint64{0, 1} {
			out, err := compile.Compile(bpProgram(bitFrag(t, secret), d, 0, 0), compile.Plain)
			if err != nil {
				t.Fatal(err)
			}
			type commit struct{ taken, misp bool }
			byPC := map[uint64][]commit{}
			core := pipeline.New(pipeline.DefaultConfig(), out.Prog)
			core.SetSpecWatch(func(ev pipeline.SpecEvent) {
				if ev.Kind == pipeline.SpecBPUpdate && isCondBranch(out.Prog, ev.PC) {
					byPC[ev.PC] = append(byPC[ev.PC], commit{ev.Taken, ev.Mispredict})
				}
			})
			if err := core.Run(); err != nil {
				t.Fatal(err)
			}
			var target uint64
			for pc, cs := range byPC {
				if len(cs) == 2 {
					if target != 0 {
						t.Fatalf("trial %d s=%d: two branch PCs commit exactly twice (%#x, %#x)", trial, secret, target, pc)
					}
					target = pc
				}
			}
			if target == 0 {
				t.Fatalf("trial %d s=%d: no branch PC commits exactly twice", trial, secret)
			}
			victim, probe := byPC[target][0], byPC[target][1]
			// The branch is not-taken when the condition (the secret) is 1.
			if victim.taken != (secret == 0) {
				t.Errorf("trial %d s=%d: victim taken=%v", trial, secret, victim.taken)
			}
			if !probe.taken {
				t.Errorf("trial %d s=%d: probe execution should be taken (condition 0)", trial, secret)
			}
			if probe.misp != (secret == 1) {
				t.Errorf("trial %d s=%d: probe mispredicted=%v, want %v — the predictor channel",
					trial, secret, probe.misp, secret == 1)
			}
			// The bimodal counter keeps the victim's direction: s=0 trains
			// it taken (0 -> 1, and the correctly-predicted probe keeps it
			// saturated); s=1 trains it not-taken (0 -> -1) and the probe's
			// own update lands on the tagged entry its mispredict
			// allocated, so the base counter stays non-positive.
			got := core.BP.TAGE.BaseCounter(target)
			if secret == 0 && got <= 0 {
				t.Errorf("trial %d s=0: BaseCounter=%d, want > 0 (victim trained taken)", trial, got)
			}
			if secret == 1 && got > 0 {
				t.Errorf("trial %d s=1: BaseCounter=%d, want <= 0 (victim trained not-taken)", trial, got)
			}
		}
	}
}

// TestPrimeProbeMechanism replays the cache attacker's protocol against a
// bare hierarchy with the program's real addresses and checks the state
// oracle the timing measurement rests on: after prime both R0 lines probe
// at the DL1 hit latency; after the victim's secret-selected conflict
// load, exactly the targeted set's R0 line probes slow (evicted).
func TestPrimeProbeMechanism(t *testing.T) {
	p := DefaultParams(PrimeProbe, false)
	rng := trialRNG(p.Seed, 0)
	d := newDraw(rng, p)
	out, err := compile.Compile(cacheProgram(bitFrag(t, 1), d, 0, 0), compile.Plain)
	if err != nil {
		t.Fatal(err)
	}
	parr := out.ArrayAddrs["parr"]
	addr := func(region, line int) uint64 { return parr + 8*uint64(region*cacheRegionElems+8*line) }

	for _, secret := range []uint64{0, 1} {
		h := cache.NewHierarchy(cache.DefaultHierarchyConfig())
		// Derive the resident-probe latency from a real fill.
		h.DL1.Access(addr(0, d.la), false)
		hit := h.DL1.ProbeLatency(addr(0, d.la))

		// Prime: both ways of both probed sets, R0 before R1 (R0 is LRU).
		for _, a := range []uint64{addr(0, d.la), addr(1, d.la), addr(0, d.lb), addr(1, d.lb)} {
			h.DL1.Access(a, false)
		}
		if got := h.DL1.ProbeLatency(addr(0, d.la)); got != hit {
			t.Fatalf("primed R0[la] probes at %d, want hit latency %d", got, hit)
		}
		if got := h.DL1.ProbeLatency(addr(0, d.lb)); got != hit {
			t.Fatalf("primed R0[lb] probes at %d, want hit latency %d", got, hit)
		}

		// Victim: one conflict load selected by the secret.
		victimLine := d.lb
		if secret == 1 {
			victimLine = d.la
		}
		h.DL1.Access(addr(2, victimLine), false)

		evicted, resident := addr(0, victimLine), addr(0, d.la)
		if victimLine == d.la {
			resident = addr(0, d.lb)
		}
		if got := h.DL1.ProbeLatency(evicted); got <= hit {
			t.Errorf("s=%d: victim-targeted R0 line still probes at %d (hit %d); expected eviction", secret, got, hit)
		}
		if got := h.DL1.ProbeLatency(resident); got != hit {
			t.Errorf("s=%d: untargeted R0 line probes at %d, want hit latency %d", secret, got, hit)
		}
		if h.DL1.Contains(evicted) || !h.DL1.Contains(resident) {
			t.Errorf("s=%d: Contains disagrees with ProbeLatency", secret)
		}
		// ProbeLatency must not have perturbed state: probing the evicted
		// line repeatedly keeps reporting a miss.
		if h.DL1.Contains(evicted) {
			t.Errorf("s=%d: ProbeLatency filled the probed line", secret)
		}
	}
}
