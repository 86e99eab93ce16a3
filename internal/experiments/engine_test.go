package experiments

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/scenario"
)

var update = flag.Bool("update", false, "rewrite golden files")

func lookup(t *testing.T, name string) *scenario.Scenario {
	t.Helper()
	sc, ok := scenario.Lookup(name)
	if !ok {
		t.Fatalf("scenario %q not registered", name)
	}
	return sc
}

// runRows runs the named scenario under spec through scenario.Run, the one
// sweep path, and returns its typed rows.
func runRows(name string, spec scenario.Spec) ([]any, error) {
	sc, ok := scenario.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("scenario %q not registered", name)
	}
	res, err := scenario.Run(sc, spec, scenario.RunOptions{})
	if err != nil {
		return nil, err
	}
	return res.Rows, nil
}

// TestRegisteredScenarios: every paper artifact plus the security sweep
// resolves through the registry.
func TestRegisteredScenarios(t *testing.T) {
	for _, name := range []string{"fig8", "fig9", "fig10a", "fig10b", "table1", "table2", "ablation", "leakmatrix"} {
		sc := lookup(t, name)
		if sc.Description == "" {
			t.Errorf("%s: empty description", name)
		}
	}
}

// TestEngineParallelMatchesSerial asserts parallel == serial through the
// engine, once, for all scenarios — every grid point simulates on an
// independent core, so rows (cycle counts included) and rendered tables
// must be bit-identical and identically ordered at any worker count.
func TestEngineParallelMatchesSerial(t *testing.T) {
	cases := []struct {
		name string
		spec scenario.Spec
	}{
		{"fig10a", scenario.Spec{Params: map[string]string{
			"kinds": "fibonacci,ones", "ws": "1,2", "iters": "2"}}},
		{"fig8", scenario.Spec{Params: map[string]string{"sizes": "256k"}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := lookup(t, tc.name)
			serialSpec, parSpec := tc.spec, tc.spec
			serialSpec.Workers = 1
			parSpec.Workers = 4
			serial, err := scenario.Run(sc, serialSpec, scenario.RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			par, err := scenario.Run(sc, parSpec, scenario.RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serial.Tables, par.Tables) {
				t.Errorf("rendered tables differ between serial and parallel runs")
			}
			if len(serial.Rows) != len(par.Rows) {
				t.Fatalf("row counts differ: %d vs %d", len(serial.Rows), len(par.Rows))
			}
			// Both row types are plain comparable values; compare exactly
			// (cycle counts and cache statistics included).
			for i := range serial.Rows {
				switch s := serial.Rows[i].(type) {
				case Fig10Row:
					if s != par.Rows[i].(Fig10Row) {
						t.Errorf("row %d differs:\nserial:   %+v\nparallel: %+v", i, s, par.Rows[i])
					}
				case Fig8Row:
					if s != par.Rows[i].(Fig8Row) {
						t.Errorf("row %d differs:\nserial:   %+v\nparallel: %+v", i, s, par.Rows[i])
					}
				default:
					t.Fatalf("row %d: unexpected type %T", i, s)
				}
			}
		})
	}
}

// goldenFig10Spec is the pinned quick sweep the golden file captures: the
// quick grid narrowed to two kernels so the file stays reviewable.
func goldenFig10Spec() scenario.Spec {
	return scenario.Spec{
		Quick:  true,
		Params: map[string]string{"kinds": "fibonacci,quicksort", "ws": "1,4"},
	}
}

// stableResultJSON marshals the result's stable form (wall times and
// worker count zeroed — the only nondeterminism in a Result).
func stableResultJSON(t *testing.T, res *scenario.Result) []byte {
	t.Helper()
	out, err := json.MarshalIndent(res.Stable(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// TestGoldenFig10QuickJSON pins the structured output of a quick Fig. 10
// sweep — spec, axes, and every typed cell including exact cycle counts —
// against testdata/fig10a_quick.golden.json. A simulator change that moves
// cycle counts legitimately regenerates it with `go test ./internal/experiments
// -run TestGolden -update`.
func TestGoldenFig10QuickJSON(t *testing.T) {
	res, err := scenario.Run(lookup(t, "fig10a"), goldenFig10Spec(), scenario.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got := stableResultJSON(t, res)
	golden := filepath.Join("testdata", "fig10a_quick.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if string(got) != string(want) {
		t.Errorf("golden mismatch for %s (regenerate with -update if the simulator legitimately changed):\ngot:\n%s", golden, got)
	}
}

// TestResultJSONRoundTrip: a Result survives the JSON wire format — what
// sempe-serve clients consume — with every typed cell intact.
func TestResultJSONRoundTrip(t *testing.T) {
	res, err := scenario.Run(lookup(t, "table2"), scenario.Spec{}, scenario.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	buf, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back scenario.Result
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if back.Scenario != res.Scenario || back.Points != res.Points {
		t.Errorf("round trip header mismatch: %+v", back)
	}
	if !reflect.DeepEqual(res.Tables, back.Tables) {
		t.Errorf("tables did not round-trip:\nin:  %+v\nout: %+v", res.Tables, back.Tables)
	}
}

// TestSweepSharing: fig10a, fig10b, and table1 declare the same sweep, so
// a row-cached invocation simulates the microbenchmark grid once; the
// scenario identity still differs per result.
func TestSweepSharing(t *testing.T) {
	spec := scenario.Spec{Params: map[string]string{"kinds": "fibonacci", "ws": "1", "iters": "1"}}
	rows := scenario.NewRowCache()
	var first []any
	for _, name := range []string{"fig10a", "fig10b", "table1"} {
		res, err := scenario.Run(lookup(t, name), spec, scenario.RunOptions{Rows: rows})
		if err != nil {
			t.Fatal(err)
		}
		if res.Scenario != name {
			t.Errorf("result names %q, want %q", res.Scenario, name)
		}
		if first == nil {
			first = res.Rows
		} else if !reflect.DeepEqual(first, res.Rows) {
			t.Errorf("%s: rows not shared from the cache", name)
		}
	}
}

// TestBadParamsRejected: a typo'd or malformed parameter fails the run
// instead of silently sweeping the default grid.
func TestBadParamsRejected(t *testing.T) {
	cases := []struct {
		name string
		spec scenario.Spec
	}{
		{"fig10a", scenario.Spec{Params: map[string]string{"kind": "fibonacci"}}}, // typo
		{"fig10a", scenario.Spec{Params: map[string]string{"ws": "one"}}},
		{"fig10a", scenario.Spec{Params: map[string]string{"kinds": "bogosort"}}},
		{"fig8", scenario.Spec{Params: map[string]string{"sizes": "17k"}}},
		{"leakmatrix", scenario.Spec{Params: map[string]string{"secrets": "-1"}}},
	}
	for _, tc := range cases {
		if _, err := scenario.Run(lookup(t, tc.name), tc.spec, scenario.RunOptions{}); err == nil {
			t.Errorf("%s with %v: no error", tc.name, tc.spec.Params)
		}
	}
}
