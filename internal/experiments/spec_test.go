package experiments

import (
	"encoding/json"
	"io"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/compile"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/scenario"
	"repro/internal/workloads"
)

// TestSpecTraceDifferential is the spec-window observability inertness gate:
// every registered scenario, run with a process-wide spec watch armed and
// without, must produce byte-identical stable JSON (cycle counts included)
// and identical typed rows. The watch reaches every core — pooled trial
// cores included — and fires an event callback on all in-flight work while
// fetch stays on the superblock replay engine, so this asserts that the
// emission points are pure observers. The sink only counts (atomically: the
// trial engines run cores on parallel workers); the count also proves the
// hooks actually fired across the grid.
func TestSpecTraceDifferential(t *testing.T) {
	var events atomic.Uint64
	for _, sc := range scenario.Scenarios() {
		spec, ok := scenarioTestSpecs[sc.Name]
		if !ok {
			t.Errorf("scenario %q has no differential spec; add one to scenarioTestSpecs", sc.Name)
			continue
		}
		t.Run(sc.Name, func(t *testing.T) {
			off, err := scenario.Run(sc, spec, scenario.RunOptions{})
			if err != nil {
				t.Fatal(err)
			}

			prev := pipeline.SetSpecWatchDefault(func(pipeline.SpecEvent) { events.Add(1) })
			defer pipeline.SetSpecWatchDefault(prev)
			on, err := scenario.Run(sc, spec, scenario.RunOptions{})
			pipeline.SetSpecWatchDefault(prev)
			if err != nil {
				t.Fatal(err)
			}

			offJSON, err := json.MarshalIndent(off.Stable(), "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			onJSON, err := json.MarshalIndent(on.Stable(), "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if string(offJSON) != string(onJSON) {
				t.Errorf("stable JSON differs with the spec watch armed:\n--- off ---\n%s\n--- armed ---\n%s", offJSON, onJSON)
			}
			if !reflect.DeepEqual(off.Rows, on.Rows) {
				t.Errorf("typed rows differ with the spec watch armed")
			}
		})
	}
	// Vacuity guard: across the whole grid the armed runs must actually have
	// delivered events (table2 alone runs no simulation, so the assertion is
	// grid-wide rather than per scenario).
	if events.Load() == 0 {
		t.Error("spec watch armed across all scenarios but no events fired")
	}
}

// TestSteadyStateZeroAllocSpecDisarmed guards the other half of the
// allocation contract: with the spec-trace metric families registered (this
// package's imports pull in internal/attack's obs registrations) but every
// tracer disarmed, the fetch-to-commit loop must stay at 0 allocs/op — the
// spec hooks may only cost nil checks on the hot path.
func TestSteadyStateZeroAllocSpecDisarmed(t *testing.T) {
	spec := workloads.HarnessSpec{Kind: workloads.Quicksort, W: 2, I: 1 << 20}
	out, err := compile.Compile(workloads.Harness(spec), compile.Plain)
	if err != nil {
		t.Fatal(err)
	}
	core := pipeline.New(pipeline.DefaultConfig(), out.Prog)
	if core.SpecWatchArmed() {
		t.Fatal("spec watch unexpectedly armed; another test leaked a default")
	}
	for i := 0; i < 10_000; i++ {
		if err := core.StepCycle(); err != nil {
			t.Fatal(err)
		}
	}

	// The spec families must be registered and scrapeable before measuring.
	var text strings.Builder
	if err := obs.Default().WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "sempe_spec_wrong_path_fetches_total") {
		t.Fatal("spec metric families not registered on the default registry")
	}

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
		t.Errorf("steady-state StepCycle with tracer families registered but disarmed: %.1f allocs/op, want 0", allocs)
	}
}
