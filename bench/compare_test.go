package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	latency := metricDef{name: "latency_ms", bound: 0.10}
	rate := metricDef{name: "throughput_per_s", higher: true, bound: 0.10}
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		d      metricDef
		a, b   []float64
		status string
		gain   bool
	}{
		{"unchanged", latency, parent, parent, "PASSED", false},
		{"slower beyond bound", latency, parent, scale(parent, 1.2), "FAILED", false},
		{"slower within bound, beyond spread", latency, parent, scale(parent, 1.05), "WARNING", false},
		{"faster", latency, parent, scale(parent, 0.8), "PASSED", true},
		{"throughput drop", rate, parent, scale(parent, 0.85), "FAILED", false},
		{"throughput gain", rate, parent, scale(parent, 1.2), "PASSED", true},
		{"noisy parent", latency, []float64{50, 150, 80, 120, 100}, []float64{100, 100, 100, 100, 100}, "UNRESOLVED", false},
		{"noisy parent, dominated", latency, []float64{50, 150, 80, 120, 100}, []float64{10, 11, 12, 13, 14}, "PASSED", true},
	} {
		v := judge(tc.d, tc.a, tc.b, nil, nil)
		if v.status != tc.status || strings.Contains(v.reason, "gain") != tc.gain {
			t.Errorf("%s: %s: %s", tc.name, v.status, v.reason)
		}
	}

	failRatio := metricDef{name: "fail_ratio", abs: true}
	if v := judge(failRatio, []float64{0, 0, 0}, []float64{0, 0.01, 0}, nil, nil); v.status != "PASSED" {
		t.Errorf("fail_ratio median unchanged: %s", v.status)
	}
	if v := judge(failRatio, []float64{0, 0, 0}, []float64{0.01, 0.01, 0}, nil, nil); v.status != "FAILED" {
		t.Errorf("fail_ratio median up: %s", v.status)
	}

	sim := metricDef{name: "sim.sempe_vs_ideal", exact: true}
	seeds := []uint64{1, 2}
	if v := judge(sim, []float64{1.1, 1.2}, []float64{1.1, 1.2}, seeds, seeds); v.status != "PASSED" {
		t.Errorf("exact metric unchanged: %s", v.status)
	}
	if v := judge(sim, []float64{1.1, 1.2}, []float64{1.1, 1.3}, seeds, seeds); v.status != "FAILED" {
		t.Errorf("exact metric moved: %s", v.status)
	}
	if v := judge(sim, []float64{1.1, 1.2}, []float64{1.1, 1.2}, seeds, []uint64{1, 3}); v.status != "UNRESOLVED" {
		t.Errorf("exact metric on different seeds: %s", v.status)
	}
}

func TestCompareReadsRecords(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, seed uint64, latency float64) string {
		rec := record{Seed: seed, Workloads: map[string]*result{"serve-read": {
			Metrics: map[string]value{"latency_ms": {latency, "ms"}},
			Outcome: map[string]value{"fail_ratio": {0, "ratio"}},
		}}}
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a := []string{write("a1", 1, 1.0), write("a2", 2, 1.01), write("a3", 3, 0.99)}
	b := []string{write("b1", 1, 1.5), write("b2", 2, 1.5), write("b3", 3, 1.5)}
	var out strings.Builder
	failed, err := compare(&out, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !failed || !strings.Contains(out.String(), "FAILED: median worse by 50.0% > bound 25.0%") {
		t.Errorf("a 50%% slowdown did not fail:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "fail_ratio") {
		t.Errorf("outcome metric missing:\n%s", out.String())
	}
}
