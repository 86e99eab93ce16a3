package experiments

import (
	"encoding/json"
	"testing"

	"repro/internal/scenario"
)

// TestAblationGeometryEffects pins the two effects the ablation axes
// isolate, on a tiny grid: a slot count below the kernel's nesting depth
// downgrades regions (§IV-E permissive overflow, counted and unprotected),
// while the Table II geometry absorbs the same kernel with zero
// overflows; and starving the SPM's bandwidth can only add snapshot-stall
// cycles.
func TestAblationGeometryEffects(t *testing.T) {
	all, err := runRows("ablation", scenario.Spec{Params: map[string]string{
		"kind": "fibonacci", "w": "6", "iters": "2", "slots": "2,30", "bws": "8,64"}})
	if err != nil {
		t.Fatal(err)
	}
	rows := narrow[AblationRow](all)
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	byPoint := map[[2]int]AblationRow{}
	for _, r := range rows {
		byPoint[[2]int{r.Slots, r.Bandwidth}] = r
		if r.Slowdown <= 1.0 {
			t.Errorf("slots=%d bw=%d: slowdown %.2f, want > 1 (SeMPE executes both paths)", r.Slots, r.Bandwidth, r.Slowdown)
		}
	}
	if r := byPoint[[2]int{2, 64}]; r.NestOverflows == 0 {
		t.Errorf("2-slot SPM under W=6 nesting reported no overflows: %+v", r)
	}
	if r := byPoint[[2]int{30, 64}]; r.NestOverflows != 0 {
		t.Errorf("Table II geometry overflowed: %+v", r)
	}
	if starved, full := byPoint[[2]int{30, 8}], byPoint[[2]int{30, 64}]; starved.SPMStallCycles < full.SPMStallCycles {
		t.Errorf("8 B/cyc stalls (%d) below 64 B/cyc stalls (%d)", starved.SPMStallCycles, full.SPMStallCycles)
	}
}

// TestAblationRowCodec: the ablation rows round-trip through the sweep's
// JSON codec bit-identically — the property the on-disk store relies on.
func TestAblationRowCodec(t *testing.T) {
	spec := scenario.Spec{Params: map[string]string{
		"kind": "ones", "w": "2", "iters": "1", "slots": "2", "bws": "32"}}
	rows, err := runRows("ablation", spec)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range rows {
		raw, err := json.Marshal(row)
		if err != nil {
			t.Fatal(err)
		}
		back, err := ablationSweep.DecodeRow(raw)
		if err != nil {
			t.Fatal(err)
		}
		if back != row {
			t.Errorf("row %d: %+v did not round-trip (got %+v)", i, row, back)
		}
	}
}

// TestAblationBadParams: malformed or non-positive geometry parameters
// fail the run.
func TestAblationBadParams(t *testing.T) {
	for _, params := range []map[string]string{
		{"slots": "many"},
		{"slots": "0"},
		{"bws": "-8"},
		{"kind": "bogosort"},
		{"slot": "2"}, // typo'd key
	} {
		spec := scenario.Spec{Params: params}
		if _, err := runRows("ablation", spec); err == nil {
			t.Errorf("params %v: no error", params)
		}
	}
}
