package experiments

import (
	"fmt"
	"strconv"

	"repro/internal/attack"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/stattest"
)

// The attack-lab sweep: run every requested attacker against every
// requested architecture, each grid point producing one
// attack.Assessment (TVLA fixed-vs-random batches plus the
// secret-recovery experiment). The row is a flat struct of primitives, so
// the sweep is shardable: `spectre` and `tvla` both render it, and the
// cluster coordinator and result store round-trip it through JSON.

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
	if err := checkParams(spec, "attackers", "archs", "trials", "seed", "noise"); err != nil {
		return AttackSpec{}, err
	}
	f := DefaultAttackSpec()
	if spec.Quick {
		f.Trials = 30
	}
	var err error
	if v, ok := spec.Params["attackers"]; ok {
		f.Attackers = f.Attackers[:0]
		for _, s := range splitCSV(v) {
			k, err := attack.ParseKind(s)
			if err != nil {
				return AttackSpec{}, fmt.Errorf("attackers: %w", err)
			}
			f.Attackers = append(f.Attackers, k)
		}
	}
	if v, ok := spec.Params["archs"]; ok {
		f.Archs = f.Archs[:0]
		for _, s := range splitCSV(v) {
			secure, err := attack.ParseArch(s)
			if err != nil {
				return AttackSpec{}, fmt.Errorf("archs: %w", err)
			}
			f.Archs = append(f.Archs, secure)
		}
	}
	if v, ok := spec.Params["trials"]; ok {
		if f.Trials, err = strconv.Atoi(v); err != nil {
			return AttackSpec{}, fmt.Errorf("trials: bad integer %q", v)
		}
	}
	if f.Trials <= 0 {
		return AttackSpec{}, fmt.Errorf("trials: must be >= 1, have %d", f.Trials)
	}
	if err := atMost("trials", attack.MaxTrials, f.Trials); err != nil {
		return AttackSpec{}, err
	}
	if v, ok := spec.Params["seed"]; ok {
		if f.Seed, err = strconv.ParseInt(v, 10, 64); err != nil {
			return AttackSpec{}, fmt.Errorf("seed: bad integer %q", v)
		}
	}
	if v, ok := spec.Params["noise"]; ok {
		if f.Noise, err = strconv.Atoi(v); err != nil {
			return AttackSpec{}, fmt.Errorf("noise: bad integer %q", v)
		}
	}
	if f.Noise < 0 {
		return AttackSpec{}, fmt.Errorf("noise: must be >= 0, have %d", f.Noise)
	}
	if err := atMost("noise", attack.MaxNoise, f.Noise); err != nil {
		return AttackSpec{}, err
	}
	return f, nil
}

// attackerNames and archNames are the single axis-value mapping shared by
// the attack and keyextract sweeps' Axes and KeyExtractSpec.engineSpec, so
// they can never desynchronize.
func attackerNames(kinds []attack.Kind) []string {
	out := make([]string, len(kinds))
	for i, k := range kinds {
		out[i] = k.String()
	}
	return out
}

func archNames(archs []bool) []string {
	out := make([]string, len(archs))
	for i, secure := range archs {
		out[i] = attack.ArchName(secure)
	}
	return out
}

var attackSweep = &scenario.Sweep{
	ID: "attack",
	Axes: func(spec scenario.Spec) ([]scenario.Axis, error) {
		f, err := attackSpecOf(spec)
		if err != nil {
			return nil, err
		}
		return []scenario.Axis{
			{Name: "attacker", Values: attackerNames(f.Attackers)},
			{Name: "arch", Values: archNames(f.Archs)},
		}, nil
	},
	Run: func(spec scenario.Spec, p scenario.Point) (any, error) {
		f, err := attackSpecOf(spec)
		if err != nil {
			return nil, err
		}
		params := attack.Params{
			Kind:   f.Attackers[p.Coords[0]],
			Secure: f.Archs[p.Coords[1]],
			Trials: f.Trials,
			Seed:   f.Seed,
			Noise:  f.Noise,
		}
		return attack.RunAssessment(params)
	},
	DecodeRow: decodeRowAs[attack.Assessment],
}

// attackRows narrows the engine's rows.
func attackRows(rows []any) []attack.Assessment {
	out := make([]attack.Assessment, len(rows))
	for i, r := range rows {
		out[i] = r.(attack.Assessment)
	}
	return out
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
			if c.T >= stattest.TVLAThreshold || -c.T >= stattest.TVLAThreshold {
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
