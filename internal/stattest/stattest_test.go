package stattest

import (
	"math"
	"math/rand"
	"testing"
)

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("mean = %v, want 5", m)
	}
	// Sum of squared deviations is 32; unbiased variance = 32/7.
	if v, want := Variance(xs), 32.0/7.0; math.Abs(v-want) > 1e-12 {
		t.Errorf("variance = %v, want %v", v, want)
	}
	if Mean(nil) != 0 || Variance(nil) != 0 || Variance([]float64{3}) != 0 {
		t.Errorf("degenerate mean/variance not zero")
	}
}

func TestWelchTKnownValue(t *testing.T) {
	// Hand-checked: a = {1,2,3}, b = {2,4,6}.
	// mean a=2 var a=1; mean b=4 var b=4; se = sqrt(1/3 + 4/3) = sqrt(5/3).
	a := []float64{1, 2, 3}
	b := []float64{2, 4, 6}
	want := -2.0 / math.Sqrt(5.0/3.0)
	if got := WelchT(a, b); math.Abs(got-want) > 1e-12 {
		t.Errorf("WelchT = %v, want %v", got, want)
	}
	if got := WelchT(b, a); math.Abs(got+want) > 1e-12 {
		t.Errorf("WelchT not antisymmetric: %v", got)
	}
}

func TestWelchTDegenerate(t *testing.T) {
	same := []float64{5, 5, 5}
	if got := WelchT(same, same); got != 0 {
		t.Errorf("identical point masses: t = %v, want 0", got)
	}
	if got := WelchT([]float64{6, 6}, same); got != TCap {
		t.Errorf("distinct point masses: t = %v, want TCap", got)
	}
	if got := WelchT(same, []float64{6, 6}); got != -TCap {
		t.Errorf("distinct point masses: t = %v, want -TCap", got)
	}
	if got := WelchT(nil, same); got != 0 {
		t.Errorf("empty sample: t = %v, want 0", got)
	}
}

// TestTVLADecision: TVLALeak fires at |t| >= 4.5, saturated t values leak
// in either direction, a NaN t does not, and a Welch t over two samples of
// one distribution stays below the threshold while a two-sigma shift
// crosses it.
func TestTVLADecision(t *testing.T) {
	for _, tc := range []struct {
		t    float64
		leak bool
	}{
		{0, false},
		{4.49, false}, {-4.49, false},
		{TVLAThreshold, true}, {-TVLAThreshold, true},
		{TCap, true}, {-TCap, true},
		{math.NaN(), false},
	} {
		if got := TVLALeak(tc.t); got != tc.leak {
			t.Errorf("TVLALeak(%v) = %v, want %v", tc.t, got, tc.leak)
		}
	}

	rng := rand.New(rand.NewSource(7))
	n := 400
	fixed := make([]float64, n)
	randomSame := make([]float64, n)
	randomShift := make([]float64, n)
	for i := 0; i < n; i++ {
		fixed[i] = rng.NormFloat64()
		randomSame[i] = rng.NormFloat64()
		randomShift[i] = rng.NormFloat64() + 2 // two-sigma mean shift
	}
	if tv := WelchT(fixed, randomSame); TVLALeak(tv) {
		t.Errorf("same-distribution TVLA leaked: t = %v", tv)
	}
	if tv := WelchT(fixed, randomShift); !TVLALeak(tv) {
		t.Errorf("shifted-distribution TVLA did not leak: t = %v", tv)
	}
}

func TestBinnedMI(t *testing.T) {
	// Perfectly separating observation: label 0 -> 1.0, label 1 -> 9.0.
	var obs []float64
	var labels []uint64
	for i := 0; i < 64; i++ {
		l := uint64(i % 2)
		labels = append(labels, l)
		obs = append(obs, 1+8*float64(l))
	}
	if mi := BinnedMI(obs, labels, 8); math.Abs(mi-1) > 1e-9 {
		t.Errorf("separating MI = %v, want 1 bit", mi)
	}
	// Constant observation: no information.
	flat := make([]float64, 64)
	if mi := BinnedMI(flat, labels, 8); mi != 0 {
		t.Errorf("constant MI = %v, want 0", mi)
	}
	// Independent observation: small plug-in bias but far below 1 bit.
	rng := rand.New(rand.NewSource(11))
	ind := make([]float64, 512)
	indLabels := make([]uint64, 512)
	for i := range ind {
		ind[i] = rng.Float64()
		indLabels[i] = uint64(rng.Intn(2))
	}
	if mi := BinnedMI(ind, indLabels, 8); mi > 0.1 {
		t.Errorf("independent MI = %v, want ~0", mi)
	}
}

// TestBinnedMIDegenerate pins the defined-degenerate contract: every
// input that cannot support an estimate returns exactly (0, true) — never
// NaN, never a panic — and healthy input is not flagged.
func TestBinnedMIDegenerate(t *testing.T) {
	labels := []uint64{0, 1, 0, 1}
	obs := []float64{1, 9, 1, 9}
	cases := []struct {
		name   string
		obs    []float64
		labels []uint64
		bins   int
	}{
		{"empty", nil, nil, 8},
		{"length mismatch", obs, labels[:2], 8},
		{"zero bins", obs, labels, 0},
		{"negative bins", obs, labels, -1},
		{"constant observation", []float64{3, 3, 3, 3}, labels, 8},
		{"single label", obs, []uint64{7, 7, 7, 7}, 8},
		{"NaN observation", []float64{1, math.NaN(), 2, 3}, labels, 8},
		{"+Inf observation", []float64{1, math.Inf(1), 2, 3}, labels, 8},
		{"-Inf observation", []float64{1, math.Inf(-1), 2, 3}, labels, 8},
	}
	for _, c := range cases {
		mi, degenerate := BinnedMIChecked(c.obs, c.labels, c.bins)
		if !degenerate {
			t.Errorf("%s: not flagged degenerate", c.name)
		}
		if mi != 0 {
			t.Errorf("%s: mi = %v, want exactly 0", c.name, mi)
		}
		if math.IsNaN(mi) {
			t.Errorf("%s: mi is NaN", c.name)
		}
		// The unflagged wrapper must agree on the value.
		if got := BinnedMI(c.obs, c.labels, c.bins); got != 0 {
			t.Errorf("%s: BinnedMI = %v, want 0", c.name, got)
		}
	}
	// A single bin over varying observations is a defined estimate (0 —
	// every observation in one bin carries nothing) and is not degenerate:
	// the inputs themselves are fine.
	if mi, degenerate := BinnedMIChecked(obs, labels, 1); mi != 0 || degenerate {
		t.Errorf("single bin: (%v, %v), want (0, false)", mi, degenerate)
	}
	// Healthy input: unflagged, positive.
	if mi, degenerate := BinnedMIChecked(obs, labels, 4); degenerate || mi <= 0.9 {
		t.Errorf("separating input: (%v, %v), want (~1, false)", mi, degenerate)
	}
}

func TestWilsonInterval(t *testing.T) {
	lo, hi := WilsonInterval(50, 100, 1.96)
	if !(lo < 0.5 && 0.5 < hi) {
		t.Errorf("50/100 interval [%v, %v] does not cover 0.5", lo, hi)
	}
	if lo < 0.39 || hi > 0.61 {
		t.Errorf("50/100 interval [%v, %v] implausibly wide", lo, hi)
	}
	lo, hi = WilsonInterval(100, 100, 1.96)
	if hi < 0.999 || lo < 0.95 {
		t.Errorf("100/100 interval [%v, %v], want [~0.96, ~1]", lo, hi)
	}
	lo, hi = WilsonInterval(0, 100, 1.96)
	if lo != 0 || hi > 0.05 {
		t.Errorf("0/100 interval [%v, %v], want [0, ~0.04]", lo, hi)
	}
	lo, hi = WilsonInterval(0, 0, 1.96)
	if lo != 0 || hi != 1 {
		t.Errorf("empty interval [%v, %v], want [0, 1]", lo, hi)
	}
}
