package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json at the repository root declares the workloads and metrics
// this program reports; the two must not drift apart.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		} `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, but the workloads' nominal sizes assume %d", doc.RunSeconds, defaultSeconds)
	}
	better := func(d metricDef) string {
		if d.higher {
			return "higher"
		}
		return "lower"
	}
	if len(doc.Workloads) != len(allWorkloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(doc.Workloads), len(allWorkloads))
	}
	for i, w := range allWorkloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why == "" {
			t.Errorf("workload %d: declared %+v, implemented %s", i, doc.Workloads[i], w.name)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d reported", len(doc.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if want := (metric{d.name, d.unit, better(d), d.bound}); doc.EndToEnd[i] != want {
			t.Errorf("end_to_end[%d] = %+v, want %+v", i, doc.EndToEnd[i], want)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, %d reported", len(doc.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		got := doc.PerLayer[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != better(d) {
			t.Errorf("per_layer[%d] = %+v, want %s %s %s", i, got, d.name, d.unit, better(d))
		}
	}
}
