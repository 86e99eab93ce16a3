package experiments

import (
	"fmt"
	"strconv"

	"repro/internal/attack"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/victim"
)

// The key-extraction sweeps: multi-bit secret recovery over the pluggable
// victim matrix. Each grid point runs attack.ExtractKey — a full per-bit
// walk of a W-bit key — and yields one attack.KeyRecovery row, a flat
// JSON-round-trippable struct, so both sweeps persist in the store.
//
// Two scenarios render the machinery:
//
//   - keyextract: the victim matrix (attacker x victim x width x gap x
//     arch) at the strongest-attacker default (gap 0).
//   - noise: the attacker-strength sweep — the same engine swept along
//     the gap axis, victim and width pinned, showing how extraction
//     degrades as the attacker loses control of the train-to-probe window.

// KeyExtractSpec parameterizes the key-extraction grid.
type KeyExtractSpec struct {
	Attackers []attack.Kind
	Victims   []string
	Widths    []int
	Gaps      []int
	Archs     []bool // false = baseline, true = SeMPE
	Trials    int    // per bit
	Seed      int64
	Noise     int
}

// DefaultKeyExtractSpec is the keyextract scenario's default grid: both
// attacker families against the leaky multi-bit victims plus the
// constant-time negative control, 8-bit keys, strongest attacker.
func DefaultKeyExtractSpec() KeyExtractSpec {
	d := attack.DefaultKeyParams(attack.BPProbe, false)
	return KeyExtractSpec{
		Attackers: attack.AllKinds(),
		Victims:   []string{"keyloop", "modexp", "ctcompare"},
		Widths:    []int{8},
		Gaps:      []int{0},
		Archs:     []bool{false, true},
		Trials:    d.Trials,
		Seed:      d.Seed,
		Noise:     d.Noise,
	}
}

// DefaultNoiseSpec is the noise scenario's default grid: the keyloop
// victim at width 4 swept along the attacker-strength axis.
func DefaultNoiseSpec() KeyExtractSpec {
	s := DefaultKeyExtractSpec()
	s.Victims = []string{"keyloop"}
	s.Widths = []int{4}
	s.Gaps = []int{0, 16, 64, 256, 512}
	s.Trials = 30
	return s
}

// keyExtractSpecOf parses spec params over the given defaults (keyextract
// and noise share the parser; only their defaults differ).
func keyExtractSpecOf(spec scenario.Spec, defaults func() KeyExtractSpec) (KeyExtractSpec, error) {
	f := defaults()
	if spec.Quick {
		f.Trials = 12
		f.Widths = []int{4}
		if len(f.Gaps) > 1 {
			f.Gaps = []int{0, 64, 512}
		}
	}
	return f, firstErr(
		checkParams(spec, "attackers", "victims", "widths", "gaps", "archs", "trials", "seed", "noise"),
		param(spec, "attackers", &f.Attackers, listOf(attack.ParseKind)),
		param(spec, "victims", &f.Victims, listOf(ident)),
		param(spec, "widths", &f.Widths, listOf(atoi)),
		param(spec, "gaps", &f.Gaps, listOf(atoi)),
		param(spec, "archs", &f.Archs, listOf(attack.ParseArch)),
		param(spec, "trials", &f.Trials, atoi),
		param(spec, "seed", &f.Seed, atoi64),
		param(spec, "noise", &f.Noise, atoi),
	)
}

func (f KeyExtractSpec) plan() (*scenario.Plan, error) {
	for _, v := range f.Victims {
		if _, err := victim.Lookup(v); err != nil {
			return nil, fmt.Errorf("victims: %w", err)
		}
	}
	if err := firstErr(
		inRange("widths", 1, victim.MaxWidth, f.Widths...),
		inRange("gaps", 0, attack.MaxGap, f.Gaps...),
		inRange("trials", 1, attack.MaxTrials, f.Trials),
		inRange("noise", 0, attack.MaxNoise, f.Noise),
	); err != nil {
		return nil, err
	}
	return &scenario.Plan{
		Axes: []scenario.Axis{
			{Name: "attacker", Values: mapSlice(f.Attackers, attack.Kind.String)},
			{Name: "victim", Values: f.Victims},
			{Name: "width", Values: mapSlice(f.Widths, strconv.Itoa)},
			{Name: "gap", Values: mapSlice(f.Gaps, strconv.Itoa)},
			{Name: "arch", Values: mapSlice(f.Archs, attack.ArchName)},
		},
		Point: func(p scenario.Point) (any, error) {
			return attack.ExtractKey(attack.KeyParams{
				Kind:   f.Attackers[p.Coords[0]],
				Victim: f.Victims[p.Coords[1]],
				Width:  f.Widths[p.Coords[2]],
				Gap:    f.Gaps[p.Coords[3]],
				Secure: f.Archs[p.Coords[4]],
				Trials: f.Trials,
				Seed:   f.Seed,
				Noise:  f.Noise,
				Key:    -1,
			})
		},
	}, nil
}

// newKeyExtractSweep builds a key-extraction sweep over the given
// defaults. keyextract and noise get separate sweep IDs (they expand
// different default grids, and the store keys rows by sweep ID), but
// share every line of behavior.
func newKeyExtractSweep(id string, defaults func() KeyExtractSpec) *scenario.Sweep {
	return &scenario.Sweep{
		ID: id,
		Plan: planOf(func(spec scenario.Spec) (KeyExtractSpec, error) {
			return keyExtractSpecOf(spec, defaults)
		}),
		DecodeRow: decodeRowAs[attack.KeyRecovery],
	}
}

var (
	keyExtractSweep = newKeyExtractSweep("keyextract", DefaultKeyExtractSpec)
	noiseSweep      = newKeyExtractSweep("keynoise", DefaultNoiseSpec)
)

// tteCell renders mean trials-to-extraction; "-" when nothing extracted.
func tteCell(k attack.KeyRecovery) any {
	if k.BitsExtracted == 0 {
		return "-"
	}
	return stats.Float(k.MeanTTE, 1)
}

// RenderKeyExtract renders the victim-matrix view.
func RenderKeyExtract(rows []attack.KeyRecovery) *stats.Table {
	t := &stats.Table{
		Title:  "Key extraction: multi-bit secret recovery over the victim matrix, baseline vs. SeMPE",
		Header: []string{"attacker", "victim", "arch", "W", "gap", "bits", "key", "recovered", "min acc", "mean TTE", "max |t|", "verdict"},
	}
	for _, k := range rows {
		t.AddRow(k.Attacker, k.Victim, k.Arch, stats.Int(uint64(k.Width)), stats.Int(uint64(k.Gap)),
			fmt.Sprintf("%d/%d", k.BitsExtracted, k.Width),
			fmt.Sprintf("%#x", k.Key), fmt.Sprintf("%#x", k.Recovered),
			stats.Percent(k.MinAccuracy), tteCell(k), stats.Float(k.MaxAbsT, 1), k.Verdict())
	}
	t.AddNote("bits = confidently extracted bits (per-bit random-secret CI clears 50%% AND majority guess correct)")
	t.AddNote("min acc = worst per-bit accuracy over informative trials; mean TTE = mean trials until a bit's CI clears chance")
	t.AddNote("expected: baseline extracts whole keys from leaky victims; ctcompare (constant-time control) and every SeMPE row stay SECURE")
	return t
}

// RenderNoise renders the attacker-strength view: extraction quality as a
// function of the gap activity between train and probe.
func RenderNoise(rows []attack.KeyRecovery) *stats.Table {
	t := &stats.Table{
		Title:  "Attacker-strength sweep: key extraction vs. train-to-probe gap activity",
		Header: []string{"attacker", "victim", "arch", "W", "gap", "bits", "min acc", "mean recovery", "mean TTE", "verdict"},
	}
	for _, k := range rows {
		t.AddRow(k.Attacker, k.Victim, k.Arch, stats.Int(uint64(k.Width)), stats.Int(uint64(k.Gap)),
			fmt.Sprintf("%d/%d", k.BitsExtracted, k.Width),
			stats.Percent(k.MinAccuracy), stats.Percent(k.MeanRecovery), tteCell(k), k.Verdict())
	}
	t.AddNote("gap = units of uncalibratable branch/memory activity injected between the victim's training and the probe")
	t.AddNote("expected: extraction quality degrades (accuracy down, TTE up) as gap grows; SeMPE stays at chance at every strength")
	return t
}
