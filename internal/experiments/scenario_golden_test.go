package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/scenario"
)

// scenarioTestSpecs maps every registered scenario to a reduced grid fast
// enough to simulate repeatedly. TestScenarioGoldens and
// TestSpecTraceDifferential fail if a scenario registers without an entry
// here, so new evaluations cannot silently skip golden or inertness
// coverage.
var scenarioTestSpecs = map[string]scenario.Spec{
	"table2": {},
	"fig8":   {Params: map[string]string{"sizes": "tiny:8"}},
	"fig9":   {Params: map[string]string{"sizes": "tiny:8"}},
	"fig10a": {Params: map[string]string{"kinds": "fibonacci,ones", "ws": "1,2", "iters": "2"}},
	"fig10b": {Params: map[string]string{"kinds": "fibonacci,ones", "ws": "1,2", "iters": "2"}},
	"table1": {Params: map[string]string{"kinds": "fibonacci,ones", "ws": "1,2", "iters": "2"}},
	"ablation": {Params: map[string]string{
		"kind": "ones", "w": "2", "iters": "1", "slots": "2,30", "bws": "64"}},
	"spectre": {Quick: true, Params: map[string]string{"trials": "6"}},
	"tvla":    {Quick: true, Params: map[string]string{"trials": "6"}},
	"keyextract": {Quick: true, Params: map[string]string{
		"trials": "4", "attackers": "bp", "victims": "keyloop", "widths": "2", "gaps": "0", "archs": "baseline,sempe"}},
	"noise": {Params: map[string]string{
		"trials": "4", "attackers": "cache", "victims": "keyloop", "widths": "2", "gaps": "0,64", "archs": "baseline"}},
	"leakmatrix": {Params: map[string]string{"kinds": "fibonacci,ones", "ws": "1,2", "iters": "2", "secrets": "2"}},
}

// scenarioGolden is the pinned form of one scenario run: the stable result
// (spec, axes, rendered tables, every typed cell) plus the typed rows, which
// the result's own JSON encoding omits.
type scenarioGolden struct {
	Result *scenario.Result `json:"result"`
	Rows   []any            `json:"rows"`
}

// TestScenarioGoldens pins every registered scenario, at its reduced grid
// from scenarioTestSpecs, against testdata/scenarios/<name>.golden.json:
// cycle counts, cache and predictor statistics, leakage digests and attack
// verdicts, byte for byte. Any change to the simulator that moves an
// observable shows up here; a deliberate one regenerates the files with
// `go test ./internal/experiments -run TestScenarioGoldens -update`.
func TestScenarioGoldens(t *testing.T) {
	for _, sc := range scenario.Scenarios() {
		spec, ok := scenarioTestSpecs[sc.Name]
		if !ok {
			t.Errorf("scenario %q has no test spec; add one to scenarioTestSpecs", sc.Name)
			continue
		}
		t.Run(sc.Name, func(t *testing.T) {
			res, err := scenario.Run(sc, spec, scenario.RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.MarshalIndent(scenarioGolden{Result: res.Stable(), Rows: res.Rows}, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			dir := filepath.Join("testdata", "scenarios")
			golden := filepath.Join(dir, sc.Name+".golden.json")
			if *update {
				if err := os.MkdirAll(dir, 0o755); err != nil {
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
		})
	}
}
