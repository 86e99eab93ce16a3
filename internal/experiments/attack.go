package experiments

import (
	"fmt"

	"repro/internal/attack"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/stattest"
)

// The attack-lab sweep: run every requested attacker against every
// requested architecture, each grid point producing one
// attack.Assessment (TVLA fixed-vs-random batches plus the
// secret-recovery experiment). The row is a flat struct of primitives:
// `spectre` and `tvla` both render it, and the result store round-trips it
// through JSON.

// AttackSpec parameterizes the attack sweep.
type AttackSpec struct {
	Attackers []attack.Kind
	Archs     []bool // false = baseline, true = SeMPE
	Trials    int
	Seed      int64
	Noise     int
}

// DefaultAttackSpec runs both attackers against both architectures with
// the attack package's default trial budget.
func DefaultAttackSpec() AttackSpec {
	d := attack.DefaultParams(attack.BPProbe, false)
	return AttackSpec{
		Attackers: attack.AllKinds(),
		Archs:     []bool{false, true},
		Trials:    d.Trials,
		Seed:      d.Seed,
		Noise:     d.Noise,
	}
}

func attackSpecOf(spec scenario.Spec) (AttackSpec, error) {
	f := DefaultAttackSpec()
	if spec.Quick {
		f.Trials = 30
	}
	return f, firstErr(
		checkParams(spec, "attackers", "archs", "trials", "seed", "noise"),
		param(spec, "attackers", &f.Attackers, listOf(attack.ParseKind)),
		param(spec, "archs", &f.Archs, listOf(attack.ParseArch)),
		param(spec, "trials", &f.Trials, atoi),
		param(spec, "seed", &f.Seed, atoi64),
		param(spec, "noise", &f.Noise, atoi),
	)
}

func (f AttackSpec) plan() (*scenario.Plan, error) {
	if err := firstErr(
		inRange("trials", 1, attack.MaxTrials, f.Trials),
		inRange("noise", 0, attack.MaxNoise, f.Noise),
	); err != nil {
		return nil, err
	}
	return &scenario.Plan{
		Axes: []scenario.Axis{
			{Name: "attacker", Values: mapSlice(f.Attackers, attack.Kind.String)},
			{Name: "arch", Values: mapSlice(f.Archs, attack.ArchName)},
		},
		Point: func(p scenario.Point) (any, error) {
			return attack.RunAssessment(attack.Params{
				Kind:   f.Attackers[p.Coords[0]],
				Secure: f.Archs[p.Coords[1]],
				Trials: f.Trials,
				Seed:   f.Seed,
				Noise:  f.Noise,
			})
		},
	}, nil
}

var attackSweep = &scenario.Sweep{
	ID:        "attack",
	Plan:      planOf(attackSpecOf),
	DecodeRow: decodeRowAs[attack.Assessment],
}

// RenderSpectre renders the secret-recovery view of the attack sweep.
func RenderSpectre(rows []attack.Assessment) *stats.Table {
	t := &stats.Table{
		Title:  "Spectre-style attack lab: secret recovery, baseline vs. SeMPE",
		Header: []string{"attacker", "arch", "trials", "recovery", "95% CI", "max |t|", "MI (bits)", "verdict"},
	}
	for _, a := range rows {
		verdict := "SECURE"
		if a.Leaks() {
			verdict = "LEAK"
		}
		t.AddRow(a.Attacker, a.Arch, stats.Int(uint64(a.Trials)),
			stats.Percent(a.Recovery),
			fmt.Sprintf("%.1f%%..%.1f%%", 100*a.CILo, 100*a.CIHi),
			stats.Float(a.MaxAbsT, 1), stats.Float(a.MIBits, 2), verdict)
	}
	t.AddNote("attackers: bp = Spectre-PHT branch-predictor probe; cache = DL1 prime+probe")
	t.AddNote("expected: baseline recovers the secret bit (CI above 50%%); SeMPE sits at chance")
	return t
}

// RenderTVLA renders the leakage-assessment view: one row per observation
// column, with the fixed-vs-random Welch t.
func RenderTVLA(rows []attack.Assessment) *stats.Table {
	t := &stats.Table{
		Title:  "TVLA leakage assessment: fixed-vs-random Welch t per observable",
		Header: []string{"attacker", "arch", "observable", "t", "|t| >= 4.5"},
	}
	for _, a := range rows {
		for _, c := range a.Columns {
			leak := "no"
			if stattest.TVLALeak(c.T) {
				leak = "LEAK"
			}
			t.AddRow(a.Attacker, a.Arch, c.Column, stats.Float(c.T, 1), leak)
		}
	}
	t.AddNote("t is Welch's statistic between a fixed-secret and a random-secret trial batch; |t| >= %.1f rejects 'no leakage' (TVLA)", stattest.TVLAThreshold)
	t.AddNote("a saturated |t| of %.0g marks a deterministic, perfectly repeatable difference", stattest.TCap)
	t.AddNote("expected: every baseline probe observable leaks; every SeMPE observable reports t = 0")
	return t
}
