package attack

import (
	"fmt"
	"math"

	"repro/internal/stattest"
)

// MIBins is the bin count of the mutual-information estimate over the
// recovery statistic.
const MIBins = 8

// ColumnT is one observation column's fixed-vs-random Welch t.
type ColumnT struct {
	Column string  `json:"column"`
	T      float64 `json:"t"`
}

// Assessment is the statistical verdict over a fixed batch and a random
// batch of the same attacker/architecture/seed: the TVLA t per observation
// column, the binned mutual-information estimate between the recovery
// statistic and the secret, and the calibrated classifier's recovery rate
// with its 95% Wilson interval.
type Assessment struct {
	Attacker string    `json:"attacker"`
	Arch     string    `json:"arch"`
	Trials   int       `json:"trials"`
	Seed     int64     `json:"seed"`
	Noise    int       `json:"noise"`
	Columns  []ColumnT `json:"columns"`
	MaxAbsT  float64   `json:"max_abs_t"`
	TVLALeak bool      `json:"tvla_leak"` // stattest.TVLALeak(MaxAbsT)
	MIBits   float64   `json:"mi_bits"`
	Recovery float64   `json:"recovery"`
	CILo     float64   `json:"ci_lo"`
	CIHi     float64   `json:"ci_hi"`
}

// Recovered reports whether the attack extracts the secret: the whole 95%
// confidence interval sits above chance.
func (a Assessment) Recovered() bool { return a.CILo > 0.5 }

// Leaks is the overall verdict — TVLA fired or the secret was recovered —
// shared by the report renderers and the cmd/sempe-attack -check gate so
// they can never drift apart.
func (a Assessment) Leaks() bool { return a.TVLALeak || a.Recovered() }

// String renders the one-line verdict cmd/sempe-attack prints.
func (a Assessment) String() string {
	verdict := "SECURE"
	if a.Leaks() {
		verdict = "LEAK"
	}
	return fmt.Sprintf("%s on %s: recovery %.1f%% (95%% CI %.1f%%..%.1f%%), max |t| %.1f, MI %.2f bits -> %s",
		a.Attacker, a.Arch, 100*a.Recovery, 100*a.CILo, 100*a.CIHi, a.MaxAbsT, a.MIBits, verdict)
}

// Assess computes the statistical verdict from a TVLA fixed batch and a
// random batch. The batches must agree on attacker, architecture, trial
// count, and seed — the pairing that makes fixed-vs-random sound (their
// per-trial environmental noise draws are identical; only the secrets
// differ).
func Assess(fixed, random *Batch) (Assessment, error) {
	pf, pr := fixed.Params, random.Params
	if pf.Kind != pr.Kind || pf.Secure != pr.Secure || pf.Seed != pr.Seed ||
		pf.Noise != pr.Noise || len(fixed.Trials) != len(random.Trials) {
		return Assessment{}, fmt.Errorf("attack: fixed/random batches not paired: %s/%s/seed %d/noise %d/%d trials vs %s/%s/seed %d/noise %d/%d",
			pf.Kind, ArchName(pf.Secure), pf.Seed, pf.Noise, len(fixed.Trials),
			pr.Kind, ArchName(pr.Secure), pr.Seed, pr.Noise, len(random.Trials))
	}
	if !fixed.Fixed {
		return Assessment{}, fmt.Errorf("attack: fixed batch has no fixed secret")
	}
	if random.Fixed {
		return Assessment{}, fmt.Errorf("attack: random batch has a fixed secret")
	}
	a := Assessment{
		Attacker: pf.Kind.String(),
		Arch:     ArchName(pf.Secure),
		Trials:   len(random.Trials),
		Seed:     pf.Seed,
		Noise:    pf.Noise,
	}
	for i, name := range fixed.Columns {
		t := stattest.WelchT(fixed.Column(i), random.Column(i))
		a.Columns = append(a.Columns, ColumnT{Column: name, T: t})
		if abs := math.Abs(t); abs > a.MaxAbsT {
			a.MaxAbsT = abs
		}
	}
	a.TVLALeak = stattest.TVLALeak(a.MaxAbsT)
	a.MIBits = stattest.BinnedMI(random.Column(signColumn(pr.Kind)), random.Secrets(), MIBins)
	a.Recovery = random.RecoveryRate()
	a.CILo, a.CIHi = stattest.WilsonInterval(random.Recovered(), len(random.Trials), 1.96)
	return a, nil
}

// RunAssessment runs the full experiment for one attacker/architecture: it
// is the key-extraction engine's per-bit assessment (runBit, with the true
// key equal to p.KeyPrefix), so every trial's calibration pair is
// simulated once and feeds both the TVLA fixed batch (secret pinned to 1)
// and the random batch. A gap is refused: the assessment never reads the
// live measurement, the one run gap activity sets apart, so it would
// overstate a weak attacker as fully calibrated; ExtractKey measures it.
func RunAssessment(p Params) (Assessment, error) {
	if err := p.validate(); err != nil {
		return Assessment{}, err
	}
	if p.Gap > 0 {
		return Assessment{}, fmt.Errorf("attack: gap %d requires the key-extraction engine (ExtractKey); an assessment never reads the live measurement", p.Gap)
	}
	b, err := runBit(p, p.KeyPrefix)
	if err != nil {
		return Assessment{}, err
	}
	return Assess(b.fixed, b.random)
}
