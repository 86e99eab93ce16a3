package experiments

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/leak"
	"repro/internal/scenario"
	"repro/internal/workloads"
)

// TestLeakMatrix is the security regression for the paper's central claim,
// swept over the full matrix: all four kernels at W ∈ {1, 4, 10}. For
// every cell, every observable channel must be bit-identical across the
// whole secret family under SeMPE, while the unprotected baseline must be
// distinguishable on at least one channel — and specifically on the
// committed-PC trace, the SDBCB channel itself.
func TestLeakMatrix(t *testing.T) {
	all, err := runRows("leakmatrix", scenario.Spec{Workers: runtime.NumCPU()})
	if err != nil {
		t.Fatal(err)
	}
	rows := narrow[LeakRow](all)
	if want := len(workloads.All()) * 3; len(rows) != want {
		t.Fatalf("matrix has %d cells, want %d", len(rows), want)
	}
	seen := map[workloads.Kind]map[int]bool{}
	for _, r := range rows {
		if seen[r.Kind] == nil {
			seen[r.Kind] = map[int]bool{}
		}
		seen[r.Kind][r.W] = true

		// SeMPE: no channel — timing, pc-trace, mem-trace, predictor, or
		// any cache level — distinguishes any pair of secrets.
		if !r.Secure() {
			t.Errorf("%v W=%d: SeMPE leaks on %v (secrets %v)", r.Kind, r.W, r.SeMPE, r.Secrets)
		}
		// Baseline: the side channel exists, and includes the PC trace.
		if len(r.Baseline) == 0 {
			t.Errorf("%v W=%d: baseline does not leak; the matrix is vacuous", r.Kind, r.W)
		}
		pcTrace := false
		for _, ch := range r.Baseline {
			if ch == leak.ChannelPCTrace {
				pcTrace = true
			}
		}
		if !pcTrace {
			t.Errorf("%v W=%d: baseline leak misses the pc-trace channel: %v", r.Kind, r.W, r.Baseline)
		}
	}
	for _, kind := range workloads.All() {
		for _, w := range []int{1, 4, 10} {
			if !seen[kind][w] {
				t.Errorf("matrix missing cell %v W=%d", kind, w)
			}
		}
	}

	// The rendered matrix reports the verdicts.
	var sb strings.Builder
	RenderLeakMatrix(rows).Render(&sb)
	if !strings.Contains(sb.String(), "SECURE") || strings.Contains(sb.String(), "LEAK\n") {
		t.Errorf("rendered matrix verdicts off:\n%s", sb.String())
	}
}
