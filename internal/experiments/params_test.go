package experiments

import (
	"strings"
	"testing"

	"repro/internal/scenario"
)

// Scenario parameter parsing must fail loudly with the offending parameter
// named — never fall back to a silently-applied zero value. Covered edge
// cases per sweep: an unknown key (typo), and a wrong value type for each
// typed parameter.
func TestScenarioParamEdgeCases(t *testing.T) {
	type c struct {
		sweep  string
		params map[string]string
		want   string // substring the error must contain
	}
	cases := []c{
		// Unknown keys: the classic singular/plural typo per sweep.
		{"fig10", map[string]string{"kind": "ones"}, "unknown parameter"},
		{"fig8", map[string]string{"size": "tiny"}, "unknown parameter"},
		{"leakmatrix", map[string]string{"secret": "3"}, "unknown parameter"},
		{"ablation", map[string]string{"slot": "4"}, "unknown parameter"},
		{"attack", map[string]string{"trial": "9"}, "unknown parameter"},
		// Wrong value types, each naming the parameter.
		{"fig10", map[string]string{"ws": "one,two"}, "ws:"},
		{"fig10", map[string]string{"iters": "3.5"}, "iters:"},
		{"fig10", map[string]string{"kinds": "fibonachos"}, "kinds:"},
		{"fig10", map[string]string{"secret": "-1"}, "secret:"},
		{"fig8", map[string]string{"sparsity": "half"}, "sparsity:"},
		{"fig8", map[string]string{"seed": "abc"}, "seed:"},
		{"leakmatrix", map[string]string{"secrets": "zero"}, "secrets:"},
		{"leakmatrix", map[string]string{"ws": ""}, ""}, // empty axis: allowed, must not error
		{"ablation", map[string]string{"bws": "wide"}, "bws:"},
		{"ablation", map[string]string{"w": "deep"}, "w:"},
		{"attack", map[string]string{"archs": "citadel"}, "archs:"},
		{"attack", map[string]string{"noise": "lots"}, "noise:"},
		// Out-of-range values must fail loudly too, not fall back to a
		// default under a key that misdescribes the computed result.
		{"attack", map[string]string{"trials": "0"}, "trials:"},
		{"attack", map[string]string{"noise": "-1"}, "noise:"},
		// Harness widths and iteration counts below 1, value named too: at
		// ws=0 the harness builder panicked inside a grid worker, and at
		// iters=0 the sweep rendered rows from harnesses that ran nothing.
		{"fig10", map[string]string{"ws": "0"}, "ws: 0 "},
		{"fig10", map[string]string{"ws": "1,4,-1"}, "ws: -1 "},
		{"fig10", map[string]string{"iters": "0"}, "iters: 0 "},
		{"leakmatrix", map[string]string{"ws": "0"}, "ws: 0 "},
		{"leakmatrix", map[string]string{"iters": "-1"}, "iters: -1 "},
		{"ablation", map[string]string{"w": "0"}, "w: 0 "},
		{"ablation", map[string]string{"iters": "0"}, "iters: 0 "},
		// Harness widths past the secret nesting limit: every point failed
		// at SeMPE compile, but only after building the harness, and at
		// 100000 building it exhausted memory. The limit itself is valid.
		{"fig10", map[string]string{"ws": "30"}, ""},
		{"fig10", map[string]string{"ws": "31"}, "ws: 31 "},
		{"fig10", map[string]string{"ws": "1,100000"}, "ws: 100000 "},
		{"leakmatrix", map[string]string{"ws": "31"}, "ws: 31 "},
		{"leakmatrix", map[string]string{"ws": "100000"}, "ws: 100000 "},
		{"ablation", map[string]string{"w": "31"}, "w: 31 "},
		{"ablation", map[string]string{"w": "100000"}, "w: 100000 "},
		// Attack trial and noise counts past their limits: a batch sized by
		// trials=2000000000 or noise=2000000000 exhausted memory.
		{"attack", map[string]string{"trials": "65536", "noise": "256"}, ""},
		{"attack", map[string]string{"trials": "65537"}, "trials: 65537 "},
		{"attack", map[string]string{"trials": "2000000000"}, "trials: 2000000000 "},
		{"attack", map[string]string{"noise": "257"}, "noise: 257 "},
		{"attack", map[string]string{"noise": "2000000000"}, "noise: 2000000000 "},
		{"keyextract", map[string]string{"trials": "65536", "noise": "256"}, ""},
		{"keyextract", map[string]string{"trials": "2000000000"}, "trials: 2000000000 "},
		{"keyextract", map[string]string{"noise": "2000000000"}, "noise: 2000000000 "},
		{"noise", map[string]string{"trials": "2000000000"}, "trials: 2000000000 "},
		{"noise", map[string]string{"noise": "257"}, "noise: 257 "},
	}
	specOf := map[string]func(scenario.Spec) error{
		"fig10":      func(s scenario.Spec) error { _, err := fig10SpecOf(s); return err },
		"fig8":       func(s scenario.Spec) error { _, err := fig8SpecOf(s); return err },
		"leakmatrix": func(s scenario.Spec) error { _, err := leakSpecOf(s); return err },
		"ablation":   func(s scenario.Spec) error { _, err := ablationSpecOf(s); return err },
		"attack":     func(s scenario.Spec) error { _, err := attackSpecOf(s); return err },
		"keyextract": func(s scenario.Spec) error { _, err := keyExtractSpecOf(s, DefaultKeyExtractSpec); return err },
		"noise":      func(s scenario.Spec) error { _, err := keyExtractSpecOf(s, DefaultNoiseSpec); return err },
	}
	for _, tc := range cases {
		err := specOf[tc.sweep](scenario.Spec{Params: tc.params})
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s %v: unexpected error %v", tc.sweep, tc.params, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s %v: no error, want one naming %q", tc.sweep, tc.params, tc.want)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s %v: error %q does not name the parameter (%q)", tc.sweep, tc.params, err, tc.want)
		}
	}
}

// A bad parameter must also surface through the engine (axes expansion),
// not only through the typed spec helpers, with the scenario named — for
// every scenario sharing a decoder.
func TestBadParamFailsThroughEngine(t *testing.T) {
	cases := []struct{ scenario, param, value string }{
		{"spectre", "trials", "NaN"},
		{"fig10a", "ws", "0"},
		{"fig10b", "ws", "0"},
		{"table1", "iters", "0"},
		{"leakmatrix", "ws", "0"},
		{"ablation", "w", "0"},
		{"fig10a", "ws", "31"},
		{"fig10b", "ws", "100000"},
		{"table1", "ws", "100000"},
		{"leakmatrix", "ws", "100000"},
		{"ablation", "w", "100000"},
		{"spectre", "trials", "2000000000"},
		{"tvla", "noise", "2000000000"},
		{"keyextract", "trials", "2000000000"},
		{"noise", "noise", "2000000000"},
	}
	for _, tc := range cases {
		sc, ok := scenario.Lookup(tc.scenario)
		if !ok {
			t.Fatalf("%s not registered", tc.scenario)
		}
		_, err := scenario.Run(sc, scenario.Spec{Params: map[string]string{tc.param: tc.value}}, scenario.RunOptions{})
		if want := tc.scenario + ": " + tc.param + ": "; err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("engine run error = %v, want one starting %q", err, want)
		}
	}
}

// Malformed -param flags (no '=', empty key) are rejected at the flag
// layer, before any scenario sees them.
func TestParamFlagMalformed(t *testing.T) {
	p := scenario.ParamFlag{}
	for _, bad := range []string{"ws", "=3", ""} {
		if err := p.Set(bad); err == nil {
			t.Errorf("ParamFlag.Set(%q): no error", bad)
		}
	}
	if err := p.Set("ws=1,2"); err != nil {
		t.Errorf("ParamFlag.Set(valid): %v", err)
	}
	if err := p.Set("empty="); err != nil {
		t.Errorf("ParamFlag.Set with empty value should be allowed (explicit empty axis): %v", err)
	}
	if p["ws"] != "1,2" || p["empty"] != "" {
		t.Errorf("ParamFlag contents wrong: %v", p)
	}
}
