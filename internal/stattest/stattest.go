// Package stattest implements the statistical leakage-assessment toolkit
// behind the attack lab (internal/attack): Welch's t-test in the TVLA
// fixed-vs-random methodology, a binned mutual-information estimate, and
// Wilson confidence intervals for secret-recovery success rates.
//
// The simulator is deterministic, so trial distributions can collapse to
// point masses; every estimator here is defined for that corner. A Welch t
// over two identical point masses is 0 (no evidence of leakage), and over
// two distinct point masses it saturates at TCap (unambiguous leakage) —
// in both cases the TVLA verdict is the one a noisy physical measurement
// would converge to with enough traces.
package stattest

import (
	"math"
	"sort"
)

// TVLAThreshold is the |t| decision threshold of the TVLA methodology
// (Goodwill et al.): |t| >= 4.5 rejects the null "the two trace groups
// have equal means" at roughly the 1e-5 level for the trace counts TVLA
// prescribes, and is the universal pass/fail line in certification labs.
const TVLAThreshold = 4.5

// TCap is the saturated t value reported when the pooled standard error is
// zero but the means differ — a deterministic, perfectly repeatable
// difference. Finite (rather than +Inf) so t values survive JSON encoding.
const TCap = 1e6

// Mean returns the arithmetic mean, or 0 for an empty sample.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased (n-1) sample variance, or 0 when fewer
// than two samples.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs)-1)
}

// WelchT returns Welch's t statistic for the difference of means between
// two independent samples with (possibly) unequal variances:
//
//	t = (mean(a) - mean(b)) / sqrt(var(a)/na + var(b)/nb)
//
// Degenerate cases: either sample empty -> 0; zero pooled standard error
// with equal means -> 0; zero pooled standard error with different means
// -> ±TCap (the deterministic-simulator saturation described in the
// package comment).
func WelchT(a, b []float64) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	ma, mb := Mean(a), Mean(b)
	se := math.Sqrt(Variance(a)/float64(len(a)) + Variance(b)/float64(len(b)))
	if se == 0 {
		switch {
		case ma == mb:
			return 0
		case ma > mb:
			return TCap
		default:
			return -TCap
		}
	}
	t := (ma - mb) / se
	return math.Max(-TCap, math.Min(TCap, t))
}

// TVLALeak is the TVLA decision on a t value: true when |t| >=
// TVLAThreshold. A NaN t is no evidence of leakage and reports false.
// Every verdict and table that says whether a t statistic leaks calls it.
func TVLALeak(t float64) bool {
	return math.Abs(t) >= TVLAThreshold
}

// BinnedMI estimates the mutual information I(obs; label) in bits between
// a scalar observation and a discrete label, by discretizing obs into
// `bins` equal-width bins over its observed range and computing
// I = H(bin) - H(bin|label) from the empirical joint distribution.
//
// It is a plug-in estimate: biased up by O(bins/n) on independent data,
// which is fine for the attack lab's use (distinguishing "about one bit"
// from "about zero bits"). Degenerate input yields 0; BinnedMIChecked
// exposes which inputs those were.
func BinnedMI(obs []float64, labels []uint64, bins int) float64 {
	mi, _ := BinnedMIChecked(obs, labels, bins)
	return mi
}

// BinnedMIChecked is BinnedMI with the degenerate cases surfaced: on
// input that cannot support an estimate it returns (0, true) — a defined
// zero with a flag, never NaN and never a panic — instead of leaving the
// caller to guess whether "0 bits" meant "independent" or "unmeasurable".
// Degenerate inputs are: an empty or length-mismatched sample, fewer than
// one bin, a constant observation (every x in one bin — the usual SeMPE
// case), a single label value (H(label) = 0), and any non-finite
// observation (NaN/±Inf would otherwise poison the range and the binning
// arithmetic).
func BinnedMIChecked(obs []float64, labels []uint64, bins int) (mi float64, degenerate bool) {
	n := len(obs)
	if n == 0 || len(labels) != n || bins < 1 {
		return 0, true
	}
	lo, hi := obs[0], obs[0]
	for _, x := range obs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return 0, true
		}
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	if lo == hi {
		return 0, true // constant observation carries no information
	}
	distinct := map[uint64]bool{}
	for _, l := range labels {
		distinct[l] = true
	}
	if len(distinct) < 2 {
		return 0, true // a single label value: H(label) = 0 by definition
	}
	width := (hi - lo) / float64(bins)
	binOf := func(x float64) int {
		b := int((x - lo) / width)
		if b >= bins {
			b = bins - 1 // x == hi lands in the last bin
		}
		return b
	}
	// Joint counts: bin x label. The accumulation below iterates bins and
	// sorted labels — never a Go map — so the non-associative float sum is
	// bit-reproducible across processes (the distributed-vs-serial
	// byte-identity gates diff JSON containing this value).
	labelIdx := map[uint64]int{}
	var labelVals []uint64
	for _, l := range labels {
		if _, ok := labelIdx[l]; !ok {
			labelIdx[l] = 0
			labelVals = append(labelVals, l)
		}
	}
	sort.Slice(labelVals, func(i, j int) bool { return labelVals[i] < labelVals[j] })
	for i, l := range labelVals {
		labelIdx[l] = i
	}
	joint := make([]int, bins*len(labelVals))
	binCount := make([]int, bins)
	labelCount := make([]int, len(labelVals))
	for i, x := range obs {
		b, l := binOf(x), labelIdx[labels[i]]
		joint[b*len(labelVals)+l]++
		binCount[b]++
		labelCount[l]++
	}
	mi = 0.0
	fn := float64(n)
	for b := 0; b < bins; b++ {
		for l := range labelVals {
			c := joint[b*len(labelVals)+l]
			if c == 0 {
				continue
			}
			pxy := float64(c) / fn
			px := float64(binCount[b]) / fn
			py := float64(labelCount[l]) / fn
			mi += pxy * math.Log2(pxy/(px*py))
		}
	}
	if mi < 0 {
		mi = 0 // clamp float round-off on independent data
	}
	return mi, false
}

// WilsonInterval returns the Wilson score interval for a binomial success
// rate: successes k out of n trials at confidence z (1.96 for 95%). Unlike
// the normal approximation it stays inside [0,1] and behaves at k=0 and
// k=n — exactly the endpoints a perfect or chance-level attack hits.
func WilsonInterval(successes, n int, z float64) (lo, hi float64) {
	if n == 0 {
		return 0, 1
	}
	p := float64(successes) / float64(n)
	fn := float64(n)
	z2 := z * z
	denom := 1 + z2/fn
	center := (p + z2/(2*fn)) / denom
	half := z / denom * math.Sqrt(p*(1-p)/fn+z2/(4*fn*fn))
	lo = math.Max(0, center-half)
	hi = math.Min(1, center+half)
	return lo, hi
}
