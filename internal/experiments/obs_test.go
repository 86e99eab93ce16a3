package experiments

import (
	"encoding/json"
	"io"
	"reflect"
	"testing"

	"repro/internal/compile"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/scenario"
	"repro/internal/workloads"
)

// TestObservabilityDifferential is the instrumentation-inertness gate:
// every registered scenario, run with the span journal attached and
// without, must produce byte-identical stable JSON and identical typed
// rows. Observability claims to be a pure observer — metrics are
// scrape-time reads and journal writes happen outside the simulated
// machine — and this asserts that claim over the full evaluation surface,
// reusing the scenario goldens' reduced grids.
func TestObservabilityDifferential(t *testing.T) {
	for _, sc := range scenario.Scenarios() {
		spec, ok := scenarioTestSpecs[sc.Name]
		if !ok {
			t.Errorf("scenario %q has no differential spec; add one to scenarioTestSpecs", sc.Name)
			continue
		}
		t.Run(sc.Name, func(t *testing.T) {
			plain, err := scenario.Run(sc, spec, scenario.RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			j := obs.NewJournal()
			observed, err := scenario.Run(sc, spec, scenario.RunOptions{Journal: j})
			if err != nil {
				t.Fatal(err)
			}

			plainJSON, err := json.MarshalIndent(plain.Stable(), "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			observedJSON, err := json.MarshalIndent(observed.Stable(), "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if string(plainJSON) != string(observedJSON) {
				t.Errorf("stable JSON differs with the journal attached:\n--- plain ---\n%s\n--- observed ---\n%s", plainJSON, observedJSON)
			}
			if !reflect.DeepEqual(plain.Rows, observed.Rows) {
				t.Errorf("typed rows differ with the journal attached")
			}

			// The journal actually observed the run: one sweep span and one
			// point span per grid point, properly paired.
			counts := map[string]int{}
			for _, e := range j.Events() {
				counts[e.Name+"/"+e.Phase]++
			}
			if counts["sweep/begin"] != 1 || counts["sweep/end"] != 1 {
				t.Errorf("sweep spans = %v, want one begin/end pair", counts)
			}
			if counts["point/begin"] != observed.Points || counts["point/end"] != observed.Points {
				t.Errorf("point spans = %v, want %d begin/end pairs", counts, observed.Points)
			}
		})
	}
}

// TestSuperblockMetricsCountEveryCore: the superblock metric families count
// every core's run, not only attack trials. A sweep with no attack moves
// each of them, and its wrong-path replays equal its wrong-path fetches
// (every fetch is a replay).
func TestSuperblockMetricsCountEveryCore(t *testing.T) {
	sc, ok := scenario.Lookup("fig10a")
	if !ok {
		t.Fatal("fig10a not registered")
	}
	before := obs.Default().Snapshot()
	spec := scenario.Spec{Params: map[string]string{"kinds": "fibonacci,ones", "ws": "1,4", "iters": "2"}}
	if _, err := scenario.Run(sc, spec, scenario.RunOptions{}); err != nil {
		t.Fatal(err)
	}
	after := obs.Default().Snapshot()
	delta := func(name string) float64 { return after[name] - before[name] }
	for _, name := range []string{
		"sempe_superblock_builds_total", "sempe_superblock_replayed_ops_total",
		"sempe_sb_wrongpath_builds_total", "sempe_sb_wrongpath_replays_total",
	} {
		if delta(name) <= 0 {
			t.Errorf("%s moved by %v over a fig10a sweep, want > 0", name, delta(name))
		}
	}
	if r, f := delta("sempe_sb_wrongpath_replays_total"), delta("sempe_spec_wrong_path_fetches_total"); r != f {
		t.Errorf("wrong-path replays moved by %v, wrong-path fetches by %v; want equal", r, f)
	}
}

// TestSteadyStateZeroAllocWithMetrics guards the 0 allocs/op contract of
// the simulator's fetch-to-commit loop with the observability layer active:
// the process-wide metric families are registered (the attack counters come
// in with this package's imports) and a scrape runs mid-measurement
// set-up. Metrics are scrape-time reads of existing atomics, so the hot
// loop must stay allocation-free.
func TestSteadyStateZeroAllocWithMetrics(t *testing.T) {
	spec := workloads.HarnessSpec{Kind: workloads.Quicksort, W: 2, I: 1 << 20}
	out, err := compile.Compile(workloads.Harness(spec), compile.Plain)
	if err != nil {
		t.Fatal(err)
	}
	core := pipeline.New(pipeline.DefaultConfig(), out.Prog)
	for i := 0; i < 10_000; i++ {
		if err := core.StepCycle(); err != nil {
			t.Fatal(err)
		}
	}

	// Scrape the full registry between warm-up and measurement: rendering
	// must not make the simulator loop allocate afterwards.
	obs.Default().WriteText(io.Discard)

	var stepErr error
	allocs := testing.AllocsPerRun(100, func() {
		if core.Halted() {
			stepErr = io.ErrUnexpectedEOF
			return
		}
		if err := core.StepCycle(); err != nil {
			stepErr = err
		}
	})
	if stepErr != nil {
		t.Fatal(stepErr)
	}
	if allocs != 0 {
		t.Errorf("steady-state StepCycle with metrics registered: %.1f allocs/op, want 0", allocs)
	}
}
