package main

import (
	"math"
	"testing"
)

func TestQuantileMatchesExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25], and
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0].
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for p, want := range map[float64]float64{0.25: 2.75, 0.5: 5.5, 0.75: 8.25} {
		if got := quantile(xs, p); math.Abs(got-want) > 1e-12 {
			t.Errorf("quantile(1..10, %v) = %v, want %v", p, got, want)
		}
	}
	for p, want := range map[float64]float64{0.25: 1, 0.5: 2, 0.75: 3} {
		if got := quantile([]float64{3, 1, 2}, p); math.Abs(got-want) > 1e-12 {
			t.Errorf("quantile([3 1 2], %v) = %v, want %v", p, got, want)
		}
	}
	if xs[0] != 10 {
		t.Error("quantile sorted its argument in place")
	}
	if quantile(nil, 0.5) != 0 || quantile([]float64{4}, 0.99) != 4 {
		t.Error("degenerate samples")
	}
	if minOf(xs) != 1 || maxOf(xs) != 10 || minOf(nil) != 0 {
		t.Error("minOf/maxOf")
	}
}

func TestTailQuantileKeepsTenSamplesBeyond(t *testing.T) {
	for n, want := range map[int]float64{
		100000: 0.999, 10000: 0.999, 9999: 0.99, 1500: 0.99, 999: 0.95,
		210: 0.95, 199: 0.9, 100: 0.9, 60: 0.8, 52: 0.8, 48: 0.75, 40: 0.75, 39: 0.5, 12: 0.5,
	} {
		if got := tailQuantile(n); got != want {
			t.Errorf("tailQuantile(%d) = %v, want %v", n, got, want)
		}
		if q := tailQuantile(n); q > 0.5 && float64(n)*(1-q) < 10-1e-9 {
			t.Errorf("tailQuantile(%d) = %v leaves fewer than ten samples beyond", n, q)
		}
	}
}

// Each workload's tail percentile is the one its number of distinct
// operations at the benchmark's 15 s budget earns.
func TestWorkloadTailPercentiles(t *testing.T) {
	nominal := map[string]int{"paper-sweep": 52, "keyextract": 12, "serve-read": 1500, "serve-write": 52}
	for _, w := range allWorkloads {
		if got := tailQuantile(nominal[w.name]); got != w.tailQ {
			t.Errorf("%s: tailQ %v, but %d operations earn %v", w.name, w.tailQ, nominal[w.name], got)
		}
	}
}
