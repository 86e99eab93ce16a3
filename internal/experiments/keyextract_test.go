package experiments

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/attack"
	"repro/internal/scenario"
	"repro/internal/stattest"
)

// TestKeyExtractAcceptance is the issue's acceptance grid through the
// registry: on the baseline core both attacker families extract every bit
// of an 8-bit key from the leaky victims at >= 99% per-bit accuracy, the
// constant-time control stays SECURE everywhere, and SeMPE sits at
// per-bit chance with every |t| under the TVLA threshold.
func TestKeyExtractAcceptance(t *testing.T) {
	sc, ok := scenario.Lookup("keyextract")
	if !ok {
		t.Fatal("keyextract not registered")
	}
	res, err := scenario.Run(sc, scenario.Spec{Params: map[string]string{"trials": "36"}}, scenario.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 12 {
		t.Fatalf("rows = %d, want 12 (2 attackers x 3 victims x 1 width x 1 gap x 2 archs)", len(res.Rows))
	}
	for _, r := range res.Rows {
		k := r.(attack.KeyRecovery)
		leaky := k.Victim != "ctcompare"
		switch {
		case k.Arch == "baseline" && leaky:
			if k.Width != 8 || !k.FullExtraction() {
				t.Errorf("%s/%s/%s: extracted %d/%d, recovered %#x want %#x",
					k.Attacker, k.Victim, k.Arch, k.BitsExtracted, k.Width, k.Recovered, k.Key)
			}
			if k.MinAccuracy < 0.99 {
				t.Errorf("%s/%s/%s: min per-bit accuracy %.3f, want >= 0.99", k.Attacker, k.Victim, k.Arch, k.MinAccuracy)
			}
		default: // SeMPE, and the negative control on any arch
			if k.Leaks() {
				t.Errorf("%s/%s/%s: leaks (%d bits, max |t| %.1f), want SECURE",
					k.Attacker, k.Victim, k.Arch, k.BitsExtracted, k.MaxAbsT)
			}
			if k.MaxAbsT >= stattest.TVLAThreshold {
				t.Errorf("%s/%s/%s: max |t| %.1f >= %.1f", k.Attacker, k.Victim, k.Arch, k.MaxAbsT, stattest.TVLAThreshold)
			}
			// Per-bit chance: no bit's recovery interval clears 50% on the
			// high side (the low side fluctuates binomially on no signal —
			// the tie-biased guess is 0 while the secret stream is random).
			for _, b := range k.Bits {
				if b.RecLo > 0.5 {
					t.Errorf("%s/%s/%s bit %d: recovery CI %.3f..%.3f clears chance",
						k.Attacker, k.Victim, k.Arch, b.Bit, b.RecLo, b.RecHi)
				}
			}
		}
		if !k.MeetsExpectation(leaky) {
			t.Errorf("%s/%s/%s: check gate failed", k.Attacker, k.Victim, k.Arch)
		}
	}
}

// TestKeyExtractRowRoundTrip: both extraction sweeps' rows must survive
// the JSON codec exactly.
func TestKeyExtractRowRoundTrip(t *testing.T) {
	for _, name := range []string{"keyextract", "noise"} {
		sw := lookup(t, name).Sweep
		if sw.DecodeRow == nil {
			t.Fatalf("%s sweep has no row codec", sw.ID)
		}
		spec := scenario.Spec{Quick: true, Params: map[string]string{
			"trials": "5", "attackers": "bp", "victims": "keyloop", "widths": "2", "gaps": "0", "archs": "baseline"}}
		rows, err := runRows(name, spec)
		if err != nil {
			t.Fatal(err)
		}
		for i, row := range rows {
			raw, err := json.Marshal(row)
			if err != nil {
				t.Fatal(err)
			}
			back, err := sw.DecodeRow(raw)
			if err != nil {
				t.Fatalf("%s row %d: %v", sw.ID, i, err)
			}
			if !reflect.DeepEqual(row, back) {
				t.Errorf("%s row %d did not round-trip:\n%+v\n%+v", sw.ID, i, row, back)
			}
		}
	}
}

// TestNoiseDegradesExtraction: through the registry, the noise scenario's
// cache rows must lose extraction quality as the gap grows (the bp probe
// is empirically robust to interposed activity — its signal lives in a
// PC-indexed bimodal counter — so the cache attacker carries this check).
func TestNoiseDegradesExtraction(t *testing.T) {
	sc, ok := scenario.Lookup("noise")
	if !ok {
		t.Fatal("noise not registered")
	}
	spec := scenario.Spec{Params: map[string]string{
		"trials": "16", "attackers": "cache", "archs": "baseline", "gaps": "0,512", "widths": "4"}}
	res, err := scenario.Run(sc, spec, scenario.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	strong := res.Rows[0].(attack.KeyRecovery)
	weak := res.Rows[1].(attack.KeyRecovery)
	if strong.Gap != 0 || weak.Gap != 512 {
		t.Fatalf("row order: gaps %d, %d", strong.Gap, weak.Gap)
	}
	if !strong.FullExtraction() {
		t.Errorf("gap 0: not a full extraction (%d/%d)", strong.BitsExtracted, strong.Width)
	}
	if weak.MinAccuracy >= strong.MinAccuracy && weak.BitsExtracted >= strong.BitsExtracted {
		t.Errorf("gap 512 (acc %.2f, %d bits) not degraded vs gap 0 (acc %.2f, %d bits)",
			weak.MinAccuracy, weak.BitsExtracted, strong.MinAccuracy, strong.BitsExtracted)
	}
}

func TestKeyExtractParamErrors(t *testing.T) {
	cases := []struct {
		params map[string]string
		want   string
	}{
		{map[string]string{"victim": "keyloop"}, "unknown parameter"},
		{map[string]string{"victims": "bogus"}, "victims:"},
		{map[string]string{"attackers": "bogus"}, "attackers:"},
		{map[string]string{"widths": "0"}, "widths:"},
		{map[string]string{"widths": "40"}, "widths:"},
		{map[string]string{"gaps": "-3"}, "gaps:"},
		{map[string]string{"archs": "fort-knox"}, "archs:"},
		{map[string]string{"trials": "many"}, "trials:"},
		{map[string]string{"seed": "x"}, "seed:"},
		{map[string]string{"noise": "-1"}, "noise:"},
	}
	for _, c := range cases {
		_, err := keyExtractSweep.Plan(scenario.Spec{Params: c.params})
		if err == nil {
			t.Errorf("params %v: no error", c.params)
			continue
		}
		if !contains(err.Error(), c.want) {
			t.Errorf("params %v: error %q does not name the parameter (%q)", c.params, err, c.want)
		}
	}
}

// TestKeyExtractTypedEntryPoint: a Go caller has one entry point,
// scenario.Run. The string spec it passes parses into exactly the typed
// spec it would have built by hand, and runs that grid.
func TestKeyExtractTypedEntryPoint(t *testing.T) {
	want := DefaultKeyExtractSpec()
	want.Attackers = []attack.Kind{attack.BPProbe}
	want.Victims = []string{"keyloop"}
	want.Widths = []int{2}
	want.Archs = []bool{false}
	want.Trials = 6
	spec := scenario.Spec{Params: map[string]string{
		"attackers": "bp", "victims": "keyloop", "widths": "2", "archs": "baseline", "trials": "6"}}
	got, err := keyExtractSpecOf(spec, DefaultKeyExtractSpec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parsed spec = %+v, want %+v", got, want)
	}
	all, err := runRows("keyextract", spec)
	if err != nil {
		t.Fatal(err)
	}
	rows := narrow[attack.KeyRecovery](all)
	if len(rows) != 1 || rows[0].Victim != "keyloop" || rows[0].Width != 2 {
		t.Fatalf("rows = %+v", rows)
	}
}
