package experiments

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/scenario"
)

// Scenario parameter parsing must fail loudly with the offending parameter
// named — never fall back to a silently-applied zero value. Covered edge
// cases per sweep, each through the sweep's Plan: an unknown key (typo), a
// wrong value type for each typed parameter, and values past a range.
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
		// djpeg sparsity is a percentage: at -5 the image generator sliced
		// its block permutation at [:-1] and at 1000 past its end, both
		// panics inside a grid worker.
		{"fig8", map[string]string{"sparsity": "0"}, ""},
		{"fig8", map[string]string{"sparsity": "100"}, ""},
		{"fig8", map[string]string{"sparsity": "-1"}, "sparsity: -1 "},
		{"fig8", map[string]string{"sparsity": "101"}, "sparsity: 101 "},
		// Axes that size an allocation or a point's run time: 100000000
		// SPM slots asked for 78 GB, and as many djpeg blocks for 51 GB.
		{"ablation", map[string]string{"slots": "2,100000000"}, "slots: 100000000 "},
		{"fig8", map[string]string{"sizes": "tiny:100000000"}, "sizes: 100000000 "},
		{"fig10", map[string]string{"iters": "1000000"}, "iters: 1000000 "},
		{"noise", map[string]string{"gaps": "0,100000000"}, "gaps: 100000000 "},
	}
	for _, tc := range cases {
		_, err := testSweeps[tc.sweep].Plan(scenario.Spec{Params: tc.params})
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

// A bad parameter must also surface through the engine (the sweep's
// plan), not only through the sweep's Plan called directly, with the
// scenario named — for every scenario sharing a decoder.
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
		{"fig8", "sparsity", "-5"},
		{"fig9", "sparsity", "1000"},
		{"ablation", "slots", "100000000"},
		{"fig9", "sizes", "tiny:100000000"},
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

// testSweeps names the registered sweeps for the tables above.
var testSweeps = map[string]*scenario.Sweep{
	"fig10":      fig10Sweep,
	"fig8":       fig8Sweep,
	"leakmatrix": leakSweep,
	"ablation":   ablationSweep,
	"attack":     attackSweep,
	"keyextract": keyExtractSweep,
	"noise":      noiseSweep,
}

// paramRanges is the range of every bounded parameter, by name, since a
// name means the same in every scenario that takes it; EXPERIMENTS.md has
// the same table. For sizes the range is the block count, for secrets how
// many there are. hi < 0 means no upper end: a wider SPM (bws) only
// shortens snapshots.
var paramRanges = map[string]struct{ lo, hi int }{
	"ws": {1, 30}, "w": {1, 30}, "iters": {1, 64}, "slots": {1, 30}, "bws": {1, -1},
	"sparsity": {0, 100}, "sizes": {1, 4096}, "secrets": {1, 16},
	"trials": {1, 65536}, "noise": {0, 256}, "widths": {1, 31}, "gaps": {0, 4096},
}

// paramValue renders n as a value of the bounded parameter name: for sizes
// a size of n blocks, for secrets n secrets.
func paramValue(name string, n int) string {
	switch name {
	case "sizes":
		return fmt.Sprintf("t:%d", n)
	case "secrets":
		return strings.TrimSuffix(strings.Repeat("7,", n), ",")
	}
	return strconv.Itoa(n)
}

// TestEveryParamBoundedAtBothEnds is one table over the registry: every
// parameter a scenario accepts (the list its unknown-parameter error
// names) has its range in paramRanges. Each end of a range must plan, and
// the value just past it must fail scenario.Run before any point runs, with
// an error that starts "<scenario>: <param>: " and names the value (for
// sizes the block count, for secrets how many there are). A parameter
// the table does not know fails the test.
func TestEveryParamBoundedAtBothEnds(t *testing.T) {
	// No end at all: seeds and secret take any 64-bit value, and the name
	// lists any registered names.
	unbounded := map[string]bool{
		"seed": true, "secret": true,
		"kinds": true, "kind": true, "attackers": true, "victims": true, "archs": true,
	}
	for _, sc := range scenario.Scenarios() {
		_, err := sc.Sweep.Plan(scenario.Spec{Params: map[string]string{"no-such-param": "1"}})
		_, have, found := strings.Cut(fmt.Sprint(err), "(have ")
		if !found {
			t.Errorf("%s: unknown-parameter error %v lists no parameters", sc.Name, err)
			continue
		}
		for _, name := range strings.Split(strings.TrimSuffix(have, ")"), ", ") {
			r, bounded := paramRanges[name]
			if name == "" || unbounded[name] {
				continue
			}
			if !bounded {
				t.Errorf("%s: parameter %q has no range in this table", sc.Name, name)
				continue
			}
			ends := [][2]int{{r.lo, r.lo - 1}}
			if r.hi >= 0 {
				ends = append(ends, [2]int{r.hi, r.hi + 1})
			}
			for _, e := range ends {
				end, past := paramValue(name, e[0]), paramValue(name, e[1])
				if _, err := sc.Sweep.Plan(scenario.Spec{Params: map[string]string{name: end}}); err != nil {
					t.Errorf("%s: %s=%s is in range but does not plan: %v", sc.Name, name, end, err)
				}
				j := obs.NewJournal()
				_, err := scenario.Run(sc, scenario.Spec{Params: map[string]string{name: past}}, scenario.RunOptions{Journal: j})
				prefix := sc.Name + ": " + name + ": "
				if err == nil || !strings.HasPrefix(err.Error(), prefix) || !strings.Contains(err.Error(), strconv.Itoa(e[1])) {
					t.Errorf("%s: %s=%s: err = %v, want one starting %q naming %d", sc.Name, name, past, err, prefix, e[1])
				}
				if evs := j.Events(); len(evs) != 0 {
					t.Errorf("%s: %s=%s: the run journaled %d events; it must fail before any point", sc.Name, name, past, len(evs))
				}
			}
		}
	}
}

// FuzzScenarioPlan: for any registered scenario and any parameters (one
// key=value per line), Plan returns an error or a grid within
// scenario.MaxPoints whose bounded parameters all lie in paramRanges, and
// never panics. The seed corpus holds every range edge of
// TestEveryParamBoundedAtBothEnds, both sides, and a spec whose lists
// multiply past the grid bound.
func FuzzScenarioPlan(f *testing.F) {
	f.Fuzz(func(t *testing.T, name string, quick bool, params string) {
		sc, ok := scenario.Lookup(name)
		if !ok {
			return
		}
		spec := scenario.Spec{Quick: quick, Params: map[string]string{}}
		for _, line := range strings.Split(params, "\n") {
			if k, v, ok := strings.Cut(line, "="); ok {
				spec.Params[k] = v
			}
		}
		plan, err := sc.Sweep.Plan(spec)
		if err != nil {
			return
		}
		if n := scenario.GridSize(plan.Axes); n > scenario.MaxPoints {
			t.Errorf("%s: planned %d points, past %d", name, n, scenario.MaxPoints)
		}
		for k, v := range spec.Params {
			r, bounded := paramRanges[k]
			for _, n := range paramNumbers(k, v) {
				if bounded && (n < r.lo || r.hi >= 0 && n > r.hi) {
					t.Errorf("%s: %s=%q planned with %d outside [%d,%d]", name, k, v, n, r.lo, r.hi)
				}
			}
		}
	})
}

// paramNumbers is the inverse of paramValue over a planned value: every
// integer in the list (a size's block count, sizes given by label
// skipped), or for secrets how many there are.
func paramNumbers(name, v string) []int {
	fields := strings.Split(v, ",")
	if name == "secrets" {
		if v == "" {
			return []int{0}
		}
		return []int{len(fields)}
	}
	var out []int
	for _, field := range fields {
		field = strings.TrimSpace(field)
		if name == "sizes" {
			_, field, _ = strings.Cut(field, ":")
		}
		if n, err := strconv.Atoi(field); err == nil {
			out = append(out, n)
		}
	}
	return out
}

// TestGridBoundedThroughEngine: a spec whose list parameters multiply past
// scenario.MaxPoints fails scenario.Run, and planning the typed spec, before
// any point runs, as "<scenario>: grid: <n> out of range [0,65536]"; a grid
// of exactly MaxPoints plans. Three 1000-value keyextract lists used to
// ask the engine for a 128 GB grid and kill the process.
func TestGridBoundedThroughEngine(t *testing.T) {
	list := func(v string, n int) string { return strings.TrimSuffix(strings.Repeat(v+",", n), ",") }
	sc, ok := scenario.Lookup("keyextract")
	if !ok {
		t.Fatal("keyextract not registered")
	}
	huge := map[string]string{"widths": list("4", 1000), "gaps": list("0", 1000), "victims": list("bit", 1000)}
	j := obs.NewJournal()
	_, err := scenario.Run(sc, scenario.Spec{Params: huge}, scenario.RunOptions{Journal: j})
	if err == nil || !strings.HasPrefix(err.Error(), "keyextract: grid: ") || !strings.HasSuffix(err.Error(), " out of range [0,65536]") {
		t.Errorf("three 1000-value lists: err = %v, want keyextract: grid: <n> out of range [0,65536]", err)
	}
	if evs := j.Events(); len(evs) != 0 {
		t.Errorf("the oversized run journaled %d events; it must fail before any point", len(evs))
	}
	f := DefaultKeyExtractSpec()
	f.Widths = slices.Repeat([]int{4}, 1000)
	f.Gaps = make([]int, 1000)
	if _, err := planBounded(f); err == nil || !strings.HasPrefix(err.Error(), "grid: ") {
		t.Errorf("typed spec: err = %v, want a grid error", err)
	}
	// attackers x archs x widths = 2 x 2 x 16384 = MaxPoints exactly.
	atBound := map[string]string{"widths": list("4", scenario.MaxPoints/4), "victims": "bit"}
	if _, err := sc.Sweep.Plan(scenario.Spec{Params: atBound}); err != nil {
		t.Errorf("a grid of exactly %d points does not plan: %v", scenario.MaxPoints, err)
	}
	atBound["gaps"] = "0,0"
	if _, err := sc.Sweep.Plan(scenario.Spec{Params: atBound}); err == nil || !strings.Contains(err.Error(), "grid: 131072 out of range") {
		t.Errorf("a grid of twice the bound: err = %v, want grid: 131072 out of range", err)
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
