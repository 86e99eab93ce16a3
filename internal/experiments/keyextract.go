package experiments

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/attack"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/victim"
)

// The key-extraction sweeps: multi-bit secret recovery over the pluggable
// victim matrix. Each grid point runs attack.ExtractKey — a full per-bit
// walk of a W-bit key — and yields one attack.KeyRecovery row, a flat
// JSON-round-trippable struct, so both sweeps are shardable through the
// cluster and persistable in the store.
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
	Workers   int
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
	if err := checkParams(spec, "attackers", "victims", "widths", "gaps", "archs", "trials", "seed", "noise"); err != nil {
		return KeyExtractSpec{}, err
	}
	f := defaults()
	if spec.Quick {
		f.Trials = 12
		f.Widths = []int{4}
		if len(f.Gaps) > 1 {
			f.Gaps = []int{0, 64, 512}
		}
	}
	var err error
	if v, ok := spec.Params["attackers"]; ok {
		f.Attackers = f.Attackers[:0]
		for _, s := range splitCSV(v) {
			k, err := attack.ParseKind(s)
			if err != nil {
				return KeyExtractSpec{}, fmt.Errorf("attackers: %w", err)
			}
			f.Attackers = append(f.Attackers, k)
		}
	}
	if v, ok := spec.Params["victims"]; ok {
		f.Victims = f.Victims[:0]
		for _, s := range splitCSV(v) {
			if _, err := victim.Lookup(s); err != nil {
				return KeyExtractSpec{}, fmt.Errorf("victims: %w", err)
			}
			f.Victims = append(f.Victims, s)
		}
	}
	if v, ok := spec.Params["widths"]; ok {
		if f.Widths, err = parseInts(v); err != nil {
			return KeyExtractSpec{}, fmt.Errorf("widths: %w", err)
		}
	}
	for _, w := range f.Widths {
		if w < 1 || w > victim.MaxWidth {
			return KeyExtractSpec{}, fmt.Errorf("widths: %d out of range [1,%d]", w, victim.MaxWidth)
		}
	}
	if v, ok := spec.Params["gaps"]; ok {
		if f.Gaps, err = parseInts(v); err != nil {
			return KeyExtractSpec{}, fmt.Errorf("gaps: %w", err)
		}
	}
	for _, g := range f.Gaps {
		if g < 0 {
			return KeyExtractSpec{}, fmt.Errorf("gaps: %d must be >= 0", g)
		}
	}
	if v, ok := spec.Params["archs"]; ok {
		f.Archs = f.Archs[:0]
		for _, s := range splitCSV(v) {
			secure, err := attack.ParseArch(s)
			if err != nil {
				return KeyExtractSpec{}, fmt.Errorf("archs: %w", err)
			}
			f.Archs = append(f.Archs, secure)
		}
	}
	if v, ok := spec.Params["trials"]; ok {
		if f.Trials, err = strconv.Atoi(v); err != nil {
			return KeyExtractSpec{}, fmt.Errorf("trials: bad integer %q", v)
		}
	}
	if f.Trials <= 0 {
		return KeyExtractSpec{}, fmt.Errorf("trials: must be >= 1, have %d", f.Trials)
	}
	if err := atMost("trials", attack.MaxTrials, f.Trials); err != nil {
		return KeyExtractSpec{}, err
	}
	if v, ok := spec.Params["seed"]; ok {
		if f.Seed, err = strconv.ParseInt(v, 10, 64); err != nil {
			return KeyExtractSpec{}, fmt.Errorf("seed: bad integer %q", v)
		}
	}
	if v, ok := spec.Params["noise"]; ok {
		if f.Noise, err = strconv.Atoi(v); err != nil {
			return KeyExtractSpec{}, fmt.Errorf("noise: bad integer %q", v)
		}
	}
	if f.Noise < 0 {
		return KeyExtractSpec{}, fmt.Errorf("noise: must be >= 0, have %d", f.Noise)
	}
	if err := atMost("noise", attack.MaxNoise, f.Noise); err != nil {
		return KeyExtractSpec{}, err
	}
	return f, nil
}

// intNames renders an int axis.
func intNames(xs []int) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = strconv.Itoa(x)
	}
	return out
}

// newKeyExtractSweep builds a key-extraction sweep over the given
// defaults. keyextract and noise get separate sweep IDs (they expand
// different default grids, and the store keys rows by sweep ID), but
// share every line of behavior.
func newKeyExtractSweep(id string, defaults func() KeyExtractSpec) *scenario.Sweep {
	return &scenario.Sweep{
		ID: id,
		Axes: func(spec scenario.Spec) ([]scenario.Axis, error) {
			f, err := keyExtractSpecOf(spec, defaults)
			if err != nil {
				return nil, err
			}
			return []scenario.Axis{
				{Name: "attacker", Values: attackerNames(f.Attackers)},
				{Name: "victim", Values: f.Victims},
				{Name: "width", Values: intNames(f.Widths)},
				{Name: "gap", Values: intNames(f.Gaps)},
				{Name: "arch", Values: archNames(f.Archs)},
			}, nil
		},
		Run: func(spec scenario.Spec, p scenario.Point) (any, error) {
			f, err := keyExtractSpecOf(spec, defaults)
			if err != nil {
				return nil, err
			}
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
		DecodeRow: decodeRowAs[attack.KeyRecovery],
	}
}

var (
	keyExtractSweep = newKeyExtractSweep("keyextract", DefaultKeyExtractSpec)
	noiseSweep      = newKeyExtractSweep("keynoise", DefaultNoiseSpec)
)

// keyRows narrows the engine's rows.
func keyRows(rows []any) []attack.KeyRecovery {
	out := make([]attack.KeyRecovery, len(rows))
	for i, r := range rows {
		out[i] = r.(attack.KeyRecovery)
	}
	return out
}

func (f KeyExtractSpec) engineSpec() scenario.Spec {
	return scenario.Spec{
		Workers: f.Workers,
		Params: map[string]string{
			"attackers": strings.Join(attackerNames(f.Attackers), ","),
			"victims":   strings.Join(f.Victims, ","),
			"widths":    strings.Join(intNames(f.Widths), ","),
			"gaps":      strings.Join(intNames(f.Gaps), ","),
			"archs":     strings.Join(archNames(f.Archs), ","),
			"trials":    strconv.Itoa(f.Trials),
			"seed":      strconv.FormatInt(f.Seed, 10),
			"noise":     strconv.Itoa(f.Noise),
		},
	}
}

// KeyExtractMatrix runs the keyextract sweep through the engine — the
// typed entry point for Go callers.
func KeyExtractMatrix(spec KeyExtractSpec) ([]attack.KeyRecovery, error) {
	rows, err := scenario.SweepRows(keyExtractSweep, spec.engineSpec(), scenario.RunOptions{})
	if err != nil {
		return nil, err
	}
	return keyRows(rows), nil
}

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
