package attack

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/stattest"
)

// The acceptance property of the whole lab, per attacker: on the
// unprotected baseline the secret bit is recovered essentially always and
// TVLA screams; under SeMPE recovery sits at chance and TVLA is silent.
// Everything is deterministic under the fixed seed, so these are exact
// regression pins with slack only for robustness against future simulator
// tuning.

func acceptanceParams(kind Kind, secure bool) Params {
	p := DefaultParams(kind, secure)
	p.Trials = 120
	return p
}

func TestBaselineLeaks(t *testing.T) {
	for _, kind := range AllKinds() {
		a, err := RunAssessment(acceptanceParams(kind, false))
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		t.Logf("%s", a)
		if a.Recovery < 0.99 {
			t.Errorf("%v baseline: recovery %.3f, want >= 0.99", kind, a.Recovery)
		}
		if !a.Recovered() {
			t.Errorf("%v baseline: CI [%.3f, %.3f] does not clear chance", kind, a.CILo, a.CIHi)
		}
		if a.MaxAbsT < stattest.TVLAThreshold {
			t.Errorf("%v baseline: max |t| = %.2f, want >= %.1f", kind, a.MaxAbsT, stattest.TVLAThreshold)
		}
		if !a.TVLALeak {
			t.Errorf("%v baseline: TVLA did not flag a leak", kind)
		}
		if a.MIBits < 0.5 {
			t.Errorf("%v baseline: MI = %.3f bits, want >= 0.5", kind, a.MIBits)
		}
	}
}

func TestSeMPECloses(t *testing.T) {
	for _, kind := range AllKinds() {
		a, err := RunAssessment(acceptanceParams(kind, true))
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		t.Logf("%s", a)
		if a.Recovery < 0.35 || a.Recovery > 0.65 {
			t.Errorf("%v sempe: recovery %.3f, want chance (0.35..0.65)", kind, a.Recovery)
		}
		if a.Recovered() {
			t.Errorf("%v sempe: CI [%.3f, %.3f] clears chance", kind, a.CILo, a.CIHi)
		}
		if a.MaxAbsT >= stattest.TVLAThreshold {
			t.Errorf("%v sempe: max |t| = %.2f, want < %.1f", kind, a.MaxAbsT, stattest.TVLAThreshold)
		}
		if a.MIBits > 0.1 {
			t.Errorf("%v sempe: MI = %.3f bits, want ~0", kind, a.MIBits)
		}
	}
}

// Under SeMPE every trial's observation vector must be bit-identical
// across the two secrets — the per-trial form of the paper's
// indistinguishability claim, and the reason the classifier degenerates to
// a tie.
func TestSeMPEObservationsSecretIndependent(t *testing.T) {
	for _, kind := range AllKinds() {
		p := DefaultParams(kind, true)
		for trial := 0; trial < 8; trial++ {
			rng := trialRNG(p.Seed, trial)
			d := newDraw(rng, p)
			o0, err := runTrial(p, d, d.gapCal, 0)
			if err != nil {
				t.Fatalf("%v trial %d: %v", kind, trial, err)
			}
			o1, err := runTrial(p, d, d.gapCal, 1)
			if err != nil {
				t.Fatalf("%v trial %d: %v", kind, trial, err)
			}
			for i := range o0 {
				if o0[i] != o1[i] {
					t.Errorf("%v trial %d col %d: %v (s=0) != %v (s=1)", kind, trial, i, o0[i], o1[i])
				}
			}
		}
	}
}

// On the baseline the same per-trial comparison must differ on the
// recovery statistic — the signal whose existence the recovery rate
// measures.
func TestBaselineObservationsDiffer(t *testing.T) {
	for _, kind := range AllKinds() {
		p := DefaultParams(kind, false)
		rec := recoveryColumn(kind)
		for trial := 0; trial < 8; trial++ {
			rng := trialRNG(p.Seed, trial)
			d := newDraw(rng, p)
			o0, err := runTrial(p, d, d.gapCal, 0)
			if err != nil {
				t.Fatalf("%v trial %d: %v", kind, trial, err)
			}
			o1, err := runTrial(p, d, d.gapCal, 1)
			if err != nil {
				t.Fatalf("%v trial %d: %v", kind, trial, err)
			}
			if o0[rec] == o1[rec] {
				t.Errorf("%v trial %d: recovery statistic identical (%v) for both secrets", kind, trial, o0[rec])
			}
		}
	}
}

func TestBatchDeterministic(t *testing.T) {
	p := DefaultParams(BPProbe, false)
	p.Trials = 10
	b1, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	j1, _ := json.Marshal(b1)
	j2, _ := json.Marshal(b2)
	if string(j1) != string(j2) {
		t.Errorf("same params, different batches:\n%s\n%s", j1, j2)
	}
	for _, tr := range b1.Trials {
		if len(tr.Obs) != len(b1.Columns) {
			t.Fatalf("obs width %d, columns %d", len(tr.Obs), len(b1.Columns))
		}
	}
}

// The fixed and random batches must draw identical per-trial environments
// so TVLA compares like with like: trials with the same secret must have
// identical observations across the two batches.
func TestFixedRandomPairing(t *testing.T) {
	p := DefaultParams(PrimeProbe, false)
	p.Trials = 12
	pf := p
	pf.FixedSecret = 1
	fixed, err := Run(pf)
	if err != nil {
		t.Fatal(err)
	}
	random, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	paired := 0
	for i := range random.Trials {
		if random.Trials[i].Secret == 1 {
			paired++
			for c := range random.Trials[i].Obs {
				if random.Trials[i].Obs[c] != fixed.Trials[i].Obs[c] {
					t.Errorf("trial %d col %d: random %v != fixed %v despite same secret and seed",
						i, c, random.Trials[i].Obs[c], fixed.Trials[i].Obs[c])
				}
			}
		}
	}
	if paired == 0 {
		t.Fatal("no secret=1 trials in the random batch; widen the check")
	}
}

func TestAssessRejectsUnpaired(t *testing.T) {
	p := DefaultParams(BPProbe, false)
	p.Trials = 4
	pf := p
	pf.FixedSecret = 1
	fixed, err := Run(pf)
	if err != nil {
		t.Fatal(err)
	}
	random, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Assess(random, random); err == nil {
		t.Error("Assess accepted a random batch as fixed")
	}
	if _, err := Assess(fixed, fixed); err == nil {
		t.Error("Assess accepted a fixed batch as random")
	}
	other := p
	other.Seed = 99
	otherRandom, err := Run(other)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Assess(fixed, otherRandom); err == nil {
		t.Error("Assess accepted batches with different seeds")
	}
	if _, err := Assess(fixed, random); err != nil {
		t.Errorf("Assess rejected a valid pair: %v", err)
	}
}

func TestRunRejectsBadParams(t *testing.T) {
	p := DefaultParams(BPProbe, false)
	p.Trials = 0
	if _, err := Run(p); err == nil {
		t.Error("Run accepted trials=0")
	}
	p = DefaultParams(BPProbe, false)
	p.Noise = -1
	if _, err := Run(p); err == nil {
		t.Error("Run accepted noise=-1")
	}
	// Past the limits a batch sized itself into a fatal out-of-memory error.
	p = DefaultParams(BPProbe, false)
	p.Trials = MaxTrials + 1
	if _, err := Run(p); err == nil || !strings.Contains(err.Error(), "trials: 65537 ") {
		t.Errorf("Run with trials=MaxTrials+1: err = %v, want one naming trials and the value", err)
	}
	p = DefaultParams(BPProbe, false)
	p.Noise = MaxNoise + 1
	if _, err := Run(p); err == nil || !strings.Contains(err.Error(), "noise: 257 ") {
		t.Errorf("Run with noise=MaxNoise+1: err = %v, want one naming noise and the value", err)
	}
	// The gap axis only does anything through ExtractKey's live
	// measurement; the batch entry points must refuse it rather than
	// silently report a fully-calibrated attacker.
	p = DefaultParams(BPProbe, false)
	p.Gap = 8
	if _, err := Run(p); err == nil {
		t.Error("Run accepted gap>0 despite never simulating the live measurement")
	}
	if _, err := RunAssessment(p); err == nil {
		t.Error("RunAssessment accepted gap>0")
	}
}

func TestParseRoundTrips(t *testing.T) {
	for _, k := range AllKinds() {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseKind("nope"); err == nil {
		t.Error("ParseKind accepted garbage")
	}
	for _, secure := range []bool{false, true} {
		got, err := ParseArch(ArchName(secure))
		if err != nil || got != secure {
			t.Errorf("ParseArch(%q) = %v, %v", ArchName(secure), got, err)
		}
	}
	if _, err := ParseArch("nope"); err == nil {
		t.Error("ParseArch accepted garbage")
	}
}
