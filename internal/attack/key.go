package attack

import (
	"fmt"
	"math/rand"

	"repro/internal/stattest"
)

// This file is the multi-bit key-extraction engine: it walks a W-bit key
// bit by bit (LSB first), runs one trial batch per bit against the chosen
// victim, and aggregates the per-bit assessments into a KeyRecovery. The
// per-bit walk mirrors real Spectre-style extraction: the attacker's
// already-recovered prefix parameterizes the victim's setup for the next
// bit, so a wrong early guess propagates — exactly the failure mode a
// strength sweep (the Gap axis) is measuring.

// KeyParams parameterizes one key-extraction experiment.
type KeyParams struct {
	Kind   Kind   `json:"kind"`
	Secure bool   `json:"secure"`
	Victim string `json:"victim"` // victim name; empty = "bit"
	Width  int    `json:"width"`  // key width in bits; 0 = 1
	Trials int    `json:"trials"` // trials per bit
	Seed   int64  `json:"seed"`
	Noise  int    `json:"noise"` // in-window jitter (see Params.Noise)
	Gap    int    `json:"gap"`   // attacker-strength gap activity (see Params.Gap)
	// Key pins the true key; negative derives a deterministic key from the
	// seed (the usual case — all-zeros or all-ones keys are edge-case
	// tests, not representative sweeps).
	Key int64 `json:"key"`
	// Workers bounds the per-bit trial worker pool (see Params.Workers);
	// results are bit-identical at any value. Excluded from JSON so stored
	// result keys are parallelism-independent.
	Workers int `json:"-"`
}

// DefaultKeyParams is the configuration the keyextract scenario and
// cmd/sempe-attack start from: an 8-bit key, the strongest attacker.
func DefaultKeyParams(kind Kind, secure bool) KeyParams {
	d := DefaultParams(kind, secure)
	return KeyParams{
		Kind:   kind,
		Secure: secure,
		Victim: "keyloop",
		Width:  8,
		Trials: 40,
		Seed:   d.Seed,
		Noise:  d.Noise,
		Key:    -1,
	}
}

// bitParams builds the per-bit trial batch parameters for attacking bit b
// with recovered prefix bits.
func (p KeyParams) bitParams(b int, prefix uint64) Params {
	return Params{
		Kind:      p.Kind,
		Secure:    p.Secure,
		Trials:    p.Trials,
		Seed:      p.Seed,
		Noise:     p.Noise,
		Victim:    p.Victim,
		Width:     p.width(),
		Bit:       b,
		KeyPrefix: prefix,
		Gap:       p.Gap,
		Workers:   p.Workers,
	}
}

func (p KeyParams) width() int {
	if p.Width == 0 {
		return 1
	}
	return p.Width
}

// TrueKey resolves the key the experiment hides from the attacker: the
// pinned Key when non-negative, otherwise a deterministic seed-derived
// value (guaranteed to mix zero and one bits for widths >= 2, so a
// guess-zero-everywhere classifier can never fake a full extraction).
func (p KeyParams) TrueKey() uint64 {
	w := p.width()
	mask := uint64(1)<<uint(w) - 1
	if p.Key >= 0 {
		return uint64(p.Key) & mask
	}
	rng := rand.New(rand.NewSource(p.Seed*0x9E3779B9 + 0x7F4A7C15))
	k := rng.Uint64() & mask
	if w >= 2 {
		// Force a mixed key: at least one set and one clear bit.
		if k == 0 {
			k = 1
		} else if k == mask {
			k &^= 2
		}
	}
	return k
}

// validate checks the per-bit batch parameters, which carry every
// constraint: Trials and Noise within [1,MaxTrials] and [0,MaxNoise], the
// width, the gap and the victim.
func (p KeyParams) validate() error {
	return p.bitParams(0, 0).validate()
}

// BitResult is one attacked bit's verdict: the extraction outcome (guess,
// accuracy against the true bit, trials-to-extraction) plus the per-bit
// statistical assessment over the paired fixed/random batches (TVLA t,
// mutual information, random-secret recovery with its Wilson interval).
type BitResult struct {
	Bit     int    `json:"bit"`
	TrueBit uint64 `json:"true_bit"`
	Guess   uint64 `json:"guess"`
	Correct bool   `json:"correct"`
	// Accuracy is the per-trial accuracy on the true bit over informative
	// trials; AccLo/AccHi is its 95% Wilson interval. A trial is
	// informative when the attacker's own calibration pair shows contrast
	// on the recovery statistic — computable without the secret, so
	// discarding the rest is legitimate attacker practice (it is how real
	// prime+probe copes with speculative wrong-path pollution). Discarded
	// counts the dropped trials; with no informative trials (SeMPE, the
	// constant-time control) Accuracy is 0 and the Extracted verdict
	// carries the result.
	Accuracy  float64 `json:"accuracy"`
	AccLo     float64 `json:"acc_lo"`
	AccHi     float64 `json:"acc_hi"`
	Discarded int     `json:"discarded"`
	// TrialsToExtract is the smallest number of leading trials whose
	// Wilson interval already clears chance on the correct side — the
	// attacker's cost to be confident in this bit. -1 when the bit is
	// never confidently extracted within the trial budget.
	TrialsToExtract int `json:"trials_to_extract"`
	// Extracted is the per-bit verdict: the random-batch recovery interval
	// clears chance AND the majority guess matches the true bit.
	Extracted bool    `json:"extracted"`
	MaxAbsT   float64 `json:"max_abs_t"`
	TVLALeak  bool    `json:"tvla_leak"`
	MIBits    float64 `json:"mi_bits"`
	Recovery  float64 `json:"recovery"` // random-secret recovery rate
	RecLo     float64 `json:"rec_lo"`
	RecHi     float64 `json:"rec_hi"`
}

// KeyRecovery is the aggregate verdict of one key-extraction experiment.
type KeyRecovery struct {
	Victim   string `json:"victim"`
	Attacker string `json:"attacker"`
	Arch     string `json:"arch"`
	Width    int    `json:"width"`
	Trials   int    `json:"trials"` // per bit
	Seed     int64  `json:"seed"`
	Noise    int    `json:"noise"`
	Gap      int    `json:"gap"`
	Key      uint64 `json:"key"`
	// Recovered is the attacker's reconstructed key: the per-bit majority
	// guesses, LSB first.
	Recovered     uint64      `json:"recovered"`
	BitsCorrect   int         `json:"bits_correct"`
	BitsExtracted int         `json:"bits_extracted"`
	MinAccuracy   float64     `json:"min_accuracy"`
	MeanRecovery  float64     `json:"mean_recovery"`
	MaxAbsT       float64     `json:"max_abs_t"`
	MeanTTE       float64     `json:"mean_tte"` // mean trials-to-extraction over extracted bits; 0 when none
	Bits          []BitResult `json:"bits"`
}

// FullExtraction reports whether every bit was confidently and correctly
// extracted — the attacker holds the whole key.
func (k KeyRecovery) FullExtraction() bool {
	return k.BitsExtracted == k.Width && k.Recovered == k.Key
}

// Leaks is the overall leakage verdict: any bit extracted, or TVLA firing
// on any bit.
func (k KeyRecovery) Leaks() bool {
	return k.BitsExtracted > 0 || stattest.TVLALeak(k.MaxAbsT)
}

// MeetsExpectation is the shared -check gate: on SeMPE every victim must
// be secure; on the baseline a leaky victim must yield the full key and a
// constant-time victim (leaky == false) must stay secure. Report renderers
// and cmd/sempe-attack -check both call this, so they can never drift.
func (k KeyRecovery) MeetsExpectation(leaky bool) bool {
	if k.Arch == ArchName(true) || !leaky {
		return !k.Leaks()
	}
	return k.FullExtraction()
}

// Verdict is the three-way row verdict shared by the CLI's String and the
// keyextract/noise table renderers, so the two can never drift.
func (k KeyRecovery) Verdict() string {
	switch {
	case k.FullExtraction():
		return "KEY EXTRACTED"
	case k.Leaks():
		return "PARTIAL LEAK"
	}
	return "SECURE"
}

// String renders the one-line verdict cmd/sempe-attack prints.
func (k KeyRecovery) String() string {
	return fmt.Sprintf("%s vs %s on %s (W=%d, gap %d): key %#x -> recovered %#x, %d/%d bits extracted, min bit accuracy %.1f%%, max |t| %.1f -> %s",
		k.Victim, k.Attacker, k.Arch, k.Width, k.Gap, k.Key, k.Recovered,
		k.BitsExtracted, k.Width, 100*k.MinAccuracy, k.MaxAbsT, k.Verdict())
}

// ExtractKey runs the key-extraction experiment: per bit, a trial batch
// (whose calibration pairs also feed the per-bit TVLA assessment), then
// the majority-vote bit decision that seeds the next bit's prefix.
func ExtractKey(p KeyParams) (KeyRecovery, error) {
	if err := p.validate(); err != nil {
		return KeyRecovery{}, err
	}
	v, err := p.bitParams(0, 0).victimImpl()
	if err != nil {
		return KeyRecovery{}, err
	}
	key := p.TrueKey()
	kr := KeyRecovery{
		Victim:      v.Name(),
		Attacker:    p.Kind.String(),
		Arch:        ArchName(p.Secure),
		Width:       p.width(),
		Trials:      p.Trials,
		Seed:        p.Seed,
		Noise:       p.Noise,
		Gap:         p.Gap,
		Key:         key,
		MinAccuracy: 1,
	}
	prefix := uint64(0)
	sumRec, sumTTE := 0.0, 0
	for b := 0; b < kr.Width; b++ {
		br, err := extractBit(p.bitParams(b, prefix), key)
		if err != nil {
			return KeyRecovery{}, fmt.Errorf("attack: extracting bit %d: %w", b, err)
		}
		kr.Bits = append(kr.Bits, br)
		prefix |= br.Guess << uint(b)
		if br.Correct {
			kr.BitsCorrect++
		}
		if br.Extracted {
			kr.BitsExtracted++
			sumTTE += br.TrialsToExtract
		}
		if br.Accuracy < kr.MinAccuracy {
			kr.MinAccuracy = br.Accuracy
		}
		if br.MaxAbsT > kr.MaxAbsT {
			kr.MaxAbsT = br.MaxAbsT
		}
		sumRec += br.Recovery
	}
	kr.Recovered = prefix
	kr.MeanRecovery = sumRec / float64(kr.Width)
	if kr.BitsExtracted > 0 {
		kr.MeanTTE = float64(sumTTE) / float64(kr.BitsExtracted)
	}
	return kr, nil
}

// extractBit classifies one bit's trial batch (runBit): per informative
// trial, the live measurement against its calibration pair, then the
// majority guess. The batch's paired fixed/random batches give the per-bit
// TVLA assessment, exactly as RunAssessment does.
func extractBit(bp Params, key uint64) (BitResult, error) {
	trueBit := (key >> uint(bp.Bit)) & 1
	br := BitResult{Bit: bp.Bit, TrueBit: trueBit, TrialsToExtract: -1}
	b, err := runBit(bp, key)
	if err != nil {
		return br, err
	}
	rec := recoveryColumn(bp.Kind)
	correct := 0
	ones := 0
	informative := 0
	for t, tr := range b.trials {
		// An uninformative trial — the attacker's own calibration shows no
		// contrast (e.g. speculative wrong-path pollution evicted both
		// probed sets) — is detected and discarded before measurement,
		// exactly as a real attacker repeats a spoiled measurement.
		if tr.c0[rec] == tr.c1[rec] {
			br.Discarded++
			continue
		}
		informative++

		// With no gap activity and a correct prefix the live measurement is
		// program-identical to the matching calibration: selected, not
		// re-simulated (the PR-4 optimization).
		m := tr.m
		if m == nil {
			m = tr.c0
			if trueBit == 1 {
				m = tr.c1
			}
		}
		g := classify(m[rec], tr.c0[rec], tr.c1[rec])
		if g == trueBit {
			correct++
		}
		if g == 1 {
			ones++
		}
		// Trials-to-extraction: the first prefix of trials (discarded ones
		// included — they cost the attacker time too) whose accuracy
		// Wilson interval clears chance on the correct side.
		if br.TrialsToExtract < 0 {
			if lo, _ := stattest.WilsonInterval(correct, informative, 1.96); lo > 0.5 {
				br.TrialsToExtract = t + 1
			}
		}
	}

	a, err := Assess(b.fixed, b.random)
	if err != nil {
		return br, err
	}
	br.Guess = 0
	if 2*ones > informative {
		br.Guess = 1
	}
	br.Correct = br.Guess == trueBit
	if informative > 0 {
		br.Accuracy = float64(correct) / float64(informative)
	}
	br.AccLo, br.AccHi = stattest.WilsonInterval(correct, informative, 1.96)
	// Extracted requires the attacker's own confidence to have converged
	// (the live-accuracy interval cleared chance at some prefix of trials),
	// not just the channel existing: on a noisy mid-gap row the random-batch
	// CI can clear 50% while the live classifier never does, and a majority
	// guess that is right by coin flip must not count as an extraction.
	br.Extracted = a.Recovered() && br.Correct && br.TrialsToExtract >= 0
	br.MaxAbsT = a.MaxAbsT
	br.TVLALeak = a.TVLALeak
	br.MIBits = a.MIBits
	br.Recovery = a.Recovery
	br.RecLo, br.RecHi = a.CILo, a.CIHi
	if !br.Extracted {
		br.TrialsToExtract = -1
	}
	return br, nil
}
