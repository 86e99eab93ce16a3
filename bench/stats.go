package main

import (
	"math"
	"sort"
)

// quantile returns the p-quantile of xs by the exclusive method — position
// p·(n+1) in the sorted sample, interpolated between its neighbours and
// clamped to the second and second-to-last ranks — which is what Python's
// statistics.quantiles(xs, n=4) computes for p = 0.25, 0.5, 0.75. Using the
// same rule here keeps the spreads this program reports equal to the ones
// an outside check computes from the same values. xs need not be sorted and
// is not modified; an empty sample yields 0.
func quantile(xs []float64, p float64) float64 {
	n := len(xs)
	switch n {
	case 0:
		return 0
	case 1:
		return xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := p * float64(n+1)
	j := int(math.Floor(h))
	if j < 1 {
		j = 1
	}
	if j > n-1 {
		j = n - 1
	}
	return s[j-1] + (s[j]-s[j-1])*(h-float64(j))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailLadder lists the percentiles a tail metric may use, highest first.
var tailLadder = []float64{0.999, 0.99, 0.95, 0.9, 0.8, 0.75}

// tailQuantile picks the highest percentile of tailLadder that still has at
// least ten of n samples beyond it, so a tail metric never rests on a
// handful of outliers; below twenty samples it falls back to the median.
// Each workload fixes its tail percentile from its nominal sample count
// (workload.tailQ), so the metric keeps one meaning when a faster program
// completes more operations in the same time.
func tailQuantile(n int) float64 {
	for _, q := range tailLadder {
		if float64(n)*(1-q) >= 10-1e-9 {
			return q
		}
	}
	return 0.5
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// minOf returns the smallest of xs, or 0 for an empty sample.
func minOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		m = math.Min(m, x)
	}
	return m
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// ratio returns a/b, or 0 when b is 0 (an idle layer).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
