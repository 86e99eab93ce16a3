package attack

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/stattest"
)

// TestKeyExtractionBaseline is the acceptance pin of the key-extraction
// engine: on the unprotected baseline, both attacker families extract
// every bit of an 8-bit key from both leaky multi-bit victims at 100%
// per-bit accuracy (>= the 99% gate), and reconstruct the key exactly.
func TestKeyExtractionBaseline(t *testing.T) {
	for _, kind := range AllKinds() {
		for _, vic := range []string{"keyloop", "modexp"} {
			p := DefaultKeyParams(kind, false)
			p.Victim = vic
			p.Trials = 36 // TVLA |t| grows ~sqrt(trials); 36 clears 4.5 with margin on every bit
			kr, err := ExtractKey(p)
			if err != nil {
				t.Fatalf("%v/%s: %v", kind, vic, err)
			}
			t.Logf("%s", kr)
			if !kr.FullExtraction() {
				t.Errorf("%v/%s baseline: extracted %d/%d bits, recovered %#x want %#x",
					kind, vic, kr.BitsExtracted, kr.Width, kr.Recovered, kr.Key)
			}
			if kr.MinAccuracy < 0.99 {
				t.Errorf("%v/%s baseline: min per-bit accuracy %.3f, want >= 0.99", kind, vic, kr.MinAccuracy)
			}
			if kr.MaxAbsT < stattest.TVLAThreshold {
				t.Errorf("%v/%s baseline: max |t| %.2f, want >= %.1f", kind, vic, kr.MaxAbsT, stattest.TVLAThreshold)
			}
			if !kr.MeetsExpectation(true) {
				t.Errorf("%v/%s baseline: check gate rejected a full extraction", kind, vic)
			}
		}
	}
}

// TestKeyExtractionSeMPE: under SeMPE the same experiments sit at per-bit
// chance — the random-secret recovery interval straddles 50%, no bit is
// extracted, and every TVLA t is silent.
func TestKeyExtractionSeMPE(t *testing.T) {
	for _, kind := range AllKinds() {
		p := DefaultKeyParams(kind, true)
		p.Width = 4
		p.Trials = 24
		kr, err := ExtractKey(p)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		t.Logf("%s", kr)
		if kr.BitsExtracted != 0 {
			t.Errorf("%v sempe: %d bits extracted, want 0", kind, kr.BitsExtracted)
		}
		if kr.MaxAbsT >= stattest.TVLAThreshold {
			t.Errorf("%v sempe: max |t| %.2f, want < %.1f", kind, kr.MaxAbsT, stattest.TVLAThreshold)
		}
		for _, br := range kr.Bits {
			// Per-bit chance: the random-secret recovery interval must not
			// clear 50% on the high side (the point estimate wanders with
			// only 24 trials, so the interval is the principled check).
			if br.RecLo > 0.5 {
				t.Errorf("%v sempe bit %d: recovery %.3f (CI %.3f..%.3f) clears chance",
					kind, br.Bit, br.Recovery, br.RecLo, br.RecHi)
			}
			if br.Extracted {
				t.Errorf("%v sempe bit %d: marked extracted", kind, br.Bit)
			}
			if br.Discarded != kr.Trials {
				t.Errorf("%v sempe bit %d: %d trials discarded, want all %d (no calibration contrast)",
					kind, br.Bit, br.Discarded, kr.Trials)
			}
		}
		if !kr.MeetsExpectation(true) {
			t.Errorf("%v sempe: check gate rejected a secure result", kind)
		}
	}
}

// TestCTCompareNegativeControl: the constant-time compare victim must
// report SECURE even on the unprotected baseline — its secret never
// reaches a branch, so an attack that "extracts" anything from it is a
// harness artifact.
func TestCTCompareNegativeControl(t *testing.T) {
	for _, kind := range AllKinds() {
		for _, secure := range []bool{false, true} {
			p := DefaultKeyParams(kind, secure)
			p.Victim = "ctcompare"
			p.Width = 4
			p.Trials = 20
			kr, err := ExtractKey(p)
			if err != nil {
				t.Fatalf("%v/%s: %v", kind, ArchName(secure), err)
			}
			t.Logf("%s", kr)
			if kr.Leaks() {
				t.Errorf("%v/%s: ctcompare leaks (bits %d, max |t| %.1f)",
					kind, ArchName(secure), kr.BitsExtracted, kr.MaxAbsT)
			}
			if !kr.MeetsExpectation(false) {
				t.Errorf("%v/%s: check gate rejected the negative control", kind, ArchName(secure))
			}
		}
	}
}

// TestSeMPEVictimObservationsKeyIndependent is the per-trial form of the
// indistinguishability claim, generalized to every victim: under SeMPE a
// trial's observation vector is bit-identical whatever the key — attacked
// bit flipped, or a completely different recovered prefix.
func TestSeMPEVictimObservationsKeyIndependent(t *testing.T) {
	for _, kind := range AllKinds() {
		for _, vic := range []string{"bit", "keyloop", "modexp", "ctcompare"} {
			w := 4
			if vic == "bit" {
				w = 1
			}
			p := DefaultParams(kind, true)
			p.Victim = vic
			p.Width = w
			p.Bit = w - 1
			for trial := 0; trial < 3; trial++ {
				d := newDraw(trialRNG(p.effSeed(), trial), p)
				var ref []float64
				for _, key := range []uint64{0, 1<<uint(p.Bit) - 1, 1 << uint(p.Bit), 1<<uint(w) - 1} {
					obs, err := runTrial(p, d, d.gapCal, key)
					if err != nil {
						t.Fatalf("%v/%s key %#x: %v", kind, vic, key, err)
					}
					if ref == nil {
						ref = obs
						continue
					}
					for i := range obs {
						if obs[i] != ref[i] {
							t.Errorf("%v/%s trial %d key %#x col %d: %v != %v",
								kind, vic, trial, key, i, obs[i], ref[i])
						}
					}
				}
			}
		}
	}
}

// TestWidthOneMatchesSpectre: a width-1 extraction with the direct bit
// victim runs the same per-trial machinery as the PR-4 single-bit
// assessment, so its per-bit statistics must equal RunAssessment's field
// for field — the refactor changed the plumbing, not the experiment.
func TestWidthOneMatchesSpectre(t *testing.T) {
	for _, kind := range AllKinds() {
		ap := DefaultParams(kind, false)
		ap.Trials = 30
		a, err := RunAssessment(ap)
		if err != nil {
			t.Fatal(err)
		}
		kp := KeyParams{Kind: kind, Victim: "bit", Width: 1, Trials: 30, Seed: ap.Seed, Noise: ap.Noise, Key: -1}
		kr, err := ExtractKey(kp)
		if err != nil {
			t.Fatal(err)
		}
		if len(kr.Bits) != 1 {
			t.Fatalf("%v: %d bit results, want 1", kind, len(kr.Bits))
		}
		br := kr.Bits[0]
		if br.Recovery != a.Recovery || br.RecLo != a.CILo || br.RecHi != a.CIHi {
			t.Errorf("%v: recovery %v (CI %v..%v) != assessment %v (CI %v..%v)",
				kind, br.Recovery, br.RecLo, br.RecHi, a.Recovery, a.CILo, a.CIHi)
		}
		if br.MaxAbsT != a.MaxAbsT || br.TVLALeak != a.TVLALeak || br.MIBits != a.MIBits {
			t.Errorf("%v: per-bit stats (t %v, leak %v, mi %v) != assessment (t %v, leak %v, mi %v)",
				kind, br.MaxAbsT, br.TVLALeak, br.MIBits, a.MaxAbsT, a.TVLALeak, a.MIBits)
		}
	}
}

// TestAllZerosAllOnesKeys: extraction must be exact at the key-space
// corners. The all-zeros key in particular is where a tie-biased
// classifier (guesses 0 when there is no signal) could fake a full
// extraction if the per-bit Extracted verdict did not require the
// random-batch interval to clear chance.
func TestAllZerosAllOnesKeys(t *testing.T) {
	for _, key := range []int64{0, 0xF} {
		p := DefaultKeyParams(BPProbe, false)
		p.Victim = "keyloop"
		p.Width = 4
		p.Trials = 20
		p.Key = key
		kr, err := ExtractKey(p)
		if err != nil {
			t.Fatal(err)
		}
		if kr.Key != uint64(key) {
			t.Fatalf("key %#x: TrueKey resolved to %#x", key, kr.Key)
		}
		if !kr.FullExtraction() || kr.Recovered != uint64(key) {
			t.Errorf("key %#x: recovered %#x, %d/%d bits extracted",
				key, kr.Recovered, kr.BitsExtracted, kr.Width)
		}
		if kr.MinAccuracy < 0.99 {
			t.Errorf("key %#x: min accuracy %.3f", key, kr.MinAccuracy)
		}
	}
}

// TestWrongBitFailsCheckGate: a deliberately corrupted per-bit result —
// one bit flipped in the recovered key — must fail the shared -check
// gate for a leaky victim on the baseline.
func TestWrongBitFailsCheckGate(t *testing.T) {
	p := DefaultKeyParams(BPProbe, false)
	p.Victim = "keyloop"
	p.Width = 4
	p.Trials = 20
	kr, err := ExtractKey(p)
	if err != nil {
		t.Fatal(err)
	}
	if !kr.MeetsExpectation(true) {
		t.Fatal("clean extraction failed the gate; cannot test corruption")
	}
	bad := kr
	bad.Recovered ^= 1 << 2 // one wrong bit
	if bad.MeetsExpectation(true) {
		t.Error("gate accepted a recovery with a wrong bit")
	}
	bad2 := kr
	bad2.BitsExtracted--
	if bad2.MeetsExpectation(true) {
		t.Error("gate accepted a recovery with an unextracted bit")
	}
	// And on SeMPE the gate must reject any extraction at all.
	sempe := kr
	sempe.Arch = ArchName(true)
	if sempe.MeetsExpectation(true) {
		t.Error("gate accepted an extraction attributed to SeMPE")
	}
}

// TestKeyRecoveryRoundTrip: KeyRecovery is the keyextract sweep's row, so
// it must survive a JSON round trip exactly (the on-disk store depends on
// it).
func TestKeyRecoveryRoundTrip(t *testing.T) {
	p := DefaultKeyParams(PrimeProbe, false)
	p.Width = 2
	p.Trials = 6
	kr, err := ExtractKey(p)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(kr)
	if err != nil {
		t.Fatal(err)
	}
	var back KeyRecovery
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(kr, back) {
		t.Errorf("round trip mismatch:\n%+v\n%+v", kr, back)
	}
}

// TestKeyParamsValidation: out-of-range key parameters fail loudly.
func TestKeyParamsValidation(t *testing.T) {
	base := DefaultKeyParams(BPProbe, false)
	cases := []struct {
		mod  func(*KeyParams)
		want string // substring the error must contain
	}{
		{func(p *KeyParams) { p.Trials = 0 }, "trials: 0 "},
		{func(p *KeyParams) { p.Trials = MaxTrials + 1 }, "trials: 65537 "},
		{func(p *KeyParams) { p.Noise = MaxNoise + 1 }, "noise: 257 "},
		{func(p *KeyParams) { p.Width = 40 }, "width: 40 out of range [1,31]"},
		{func(p *KeyParams) { p.Gap = -1 }, "gap: -1 out of range [0,4096]"},
		// Past MaxGap every trial program runs that many units of gap
		// activity: at 1e9 one trial simulated for hours.
		{func(p *KeyParams) { p.Gap = MaxGap + 1 }, "gap: 4097 out of range [0,4096]"},
		{func(p *KeyParams) { p.Victim = "nope" }, "nope"},
	}
	for i, tc := range cases {
		p := base
		tc.mod(&p)
		if _, err := ExtractKey(p); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("case %d: err = %v, want one containing %q", i, err, tc.want)
		}
	}
}

// TestGapNoiseDegradesCacheAttack: the attacker-strength axis must do
// something — with heavy uncalibratable gap activity between the victim's
// access and the probe, the prime+probe attacker's per-bit accuracy drops
// below the perfect extraction it achieves at gap 0.
func TestGapNoiseDegradesCacheAttack(t *testing.T) {
	strong := DefaultKeyParams(PrimeProbe, false)
	strong.Victim = "keyloop"
	strong.Width = 4
	strong.Trials = 16
	weakest := strong
	weakest.Gap = 512
	s, err := ExtractKey(strong)
	if err != nil {
		t.Fatal(err)
	}
	w, err := ExtractKey(weakest)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("gap 0:   %s", s)
	t.Logf("gap 512: %s", w)
	if s.MinAccuracy != 1 {
		t.Errorf("gap 0: min accuracy %.3f, want 1.0", s.MinAccuracy)
	}
	if w.MinAccuracy >= s.MinAccuracy {
		t.Errorf("gap 512 accuracy %.3f not below gap 0 accuracy %.3f — the strength axis is inert",
			w.MinAccuracy, s.MinAccuracy)
	}
}
