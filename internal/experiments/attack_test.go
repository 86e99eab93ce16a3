package experiments

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/attack"
	"repro/internal/scenario"
	"repro/internal/stattest"
)

// TestSpectreAcceptance is the attack lab's acceptance grid through the
// registry: on the unprotected baseline both attackers recover the secret
// bit with >= 99% success and TVLA |t| >= 4.5; under SeMPE the same
// attacks report recovery at chance and |t| < 4.5. Fixed seed, quick grid.
func TestSpectreAcceptance(t *testing.T) {
	sc, ok := scenario.Lookup("spectre")
	if !ok {
		t.Fatal("spectre not registered")
	}
	res, err := scenario.Run(sc, scenario.Spec{Quick: true, Params: map[string]string{"trials": "120"}}, scenario.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 (2 attackers x 2 archs)", len(res.Rows))
	}
	for _, r := range res.Rows {
		a := r.(attack.Assessment)
		switch a.Arch {
		case "baseline":
			if a.Recovery < 0.99 {
				t.Errorf("%s/%s: recovery %.3f, want >= 0.99", a.Attacker, a.Arch, a.Recovery)
			}
			if a.MaxAbsT < stattest.TVLAThreshold {
				t.Errorf("%s/%s: max |t| %.2f, want >= %.1f", a.Attacker, a.Arch, a.MaxAbsT, stattest.TVLAThreshold)
			}
		case "sempe":
			if a.Recovery < 0.35 || a.Recovery > 0.65 || a.Recovered() {
				t.Errorf("%s/%s: recovery %.3f (CI %.3f..%.3f), want chance", a.Attacker, a.Arch, a.Recovery, a.CILo, a.CIHi)
			}
			if a.MaxAbsT >= stattest.TVLAThreshold {
				t.Errorf("%s/%s: max |t| %.2f, want < %.1f", a.Attacker, a.Arch, a.MaxAbsT, stattest.TVLAThreshold)
			}
		default:
			t.Errorf("unexpected arch %q", a.Arch)
		}
	}
}

// The attack sweep's rows survive a JSON round trip exactly, which is
// what store persistence relies on.
func TestAttackRowRoundTrip(t *testing.T) {
	if attackSweep.DecodeRow == nil {
		t.Fatal("attack sweep has no row codec")
	}
	spec := scenario.Spec{Quick: true, Params: map[string]string{"trials": "10", "attackers": "bp", "archs": "baseline"}}
	rows, err := runRows("spectre", spec)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range rows {
		raw, err := json.Marshal(row)
		if err != nil {
			t.Fatal(err)
		}
		back, err := attackSweep.DecodeRow(raw)
		if err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		if !reflect.DeepEqual(row, back) {
			t.Errorf("row %d did not round-trip:\n%+v\n%+v", i, row, back)
		}
	}
}

// Both attack scenarios render from the same sweep, so a RowCache-equipped
// run simulates the grid once.
func TestSpectreTVLAShareSweep(t *testing.T) {
	spectre, _ := scenario.Lookup("spectre")
	tvla, ok := scenario.Lookup("tvla")
	if !ok {
		t.Fatal("tvla not registered")
	}
	if spectre.Sweep != tvla.Sweep {
		t.Error("spectre and tvla do not share a sweep")
	}
	spec := scenario.Spec{Quick: true, Params: map[string]string{"trials": "8", "attackers": "cache", "archs": "sempe"}}
	cache := scenario.NewRowCache()
	r1, err := scenario.Run(spectre, spec, scenario.RunOptions{Rows: cache})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := scenario.Run(tvla, spec, scenario.RunOptions{Rows: cache})
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Tables) != 1 || len(r2.Tables) != 1 {
		t.Fatalf("tables: %d, %d", len(r1.Tables), len(r2.Tables))
	}
	// Identical rows prove the cache hit (one simulated grid, two renders).
	if !reflect.DeepEqual(r1.Rows, r2.Rows) {
		t.Error("tvla run did not reuse spectre's cached rows")
	}
}

func TestAttackParamErrors(t *testing.T) {
	cases := []struct {
		params map[string]string
		want   string
	}{
		{map[string]string{"attacker": "bp"}, "unknown parameter"},
		{map[string]string{"attackers": "bogus"}, "attackers:"},
		{map[string]string{"archs": "fort-knox"}, "archs:"},
		{map[string]string{"trials": "many"}, "trials:"},
		{map[string]string{"seed": "x"}, "seed:"},
		{map[string]string{"noise": "loud"}, "noise:"},
	}
	for _, c := range cases {
		_, err := attackSweep.Plan(scenario.Spec{Params: c.params})
		if err == nil {
			t.Errorf("params %v: no error", c.params)
			continue
		}
		if !contains(err.Error(), c.want) {
			t.Errorf("params %v: error %q does not name the parameter (%q)", c.params, err, c.want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
